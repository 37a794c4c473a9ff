#!/usr/bin/env python
"""Sweep-broker smoke test: two forked workers, one SIGKILLed mid-cell.

End-to-end acceptance check for ``repro.runtime.distributed`` (run by
the CI ``distributed-smoke`` job, and runnable locally):

1. Run a quick design-matrix grid serially - the ground truth.
2. Serve the same grid from a ``SweepBroker`` (with the result cache
   attached) to the two worker processes it forks. A
   ``REPRO_FAULT_PLAN`` makes the first attempt at the first cell hang;
   once the other worker has drained the rest of the grid, the worker
   holding that cell's lease is SIGKILLed mid-cell.
3. Require: the sweep completes; results are bit-identical
   (``RunResult`` equality) to the serial run; the killed worker's
   lease was reclaimed; and each cell was recorded exactly once.

Exit status 0 = all checks passed.
"""

import multiprocessing
import os
import pathlib
import signal
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.config import small_config  # noqa: E402
from repro.runtime.cache import ResultCache  # noqa: E402
from repro.runtime.distributed import SweepBroker  # noqa: E402
from repro.runtime.executor import SweepExecutor, SweepTask  # noqa: E402
from repro.runtime.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec  # noqa: E402

WORKLOADS = ("dgemm", "hacc", "quickS")
DESIGNS = ("CRISP", "PCSTALL")


def quick_grid():
    cfg = small_config()
    return [
        SweepTask(workload=w, design=d, config=cfg, scale=0.2, max_epochs=40)
        for w in WORKLOADS
        for d in DESIGNS
    ]


def main() -> int:
    tasks = quick_grid()
    n = len(tasks)
    checks = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(ok)
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    os.environ.pop(FAULT_PLAN_ENV, None)
    print(f"== serial baseline ({n} cells)")
    serial = SweepExecutor(max_workers=1, cache=None).run(tasks)

    print("== broker + 2 forked workers, the one holding a hung cell SIGKILLed")
    # The first attempt at the first cell hangs (far beyond any timeout)
    # on whichever worker leases it; every other attempt runs normally.
    hung_label = tasks[0].label
    os.environ[FAULT_PLAN_ENV] = FaultPlan(specs=(
        FaultSpec(cell=hung_label, mode="hang", attempts=1, hang_s=600.0),
    )).to_json()
    with tempfile.TemporaryDirectory(prefix="repro-dsmoke-") as tmp:
        ex = SweepExecutor(cache=ResultCache(pathlib.Path(tmp) / "cache"))
        results: list = [None] * n
        broker = SweepBroker(ex, tasks, [t.key() for t in tasks], range(n), results)
        errors: list = []

        def run_sweep() -> None:
            try:
                broker.serve(workers=2)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        sweep = threading.Thread(target=run_sweep, name="sweep")
        sweep.start()

        # Wait until only the hung cell remains, then kill its worker
        # mid-cell - the broker must reclaim the lease and reassign it.
        deadline = time.monotonic() + 300
        while len(ex.progress.cells) < n - 1 and sweep.is_alive():
            if time.monotonic() > deadline:
                break
            time.sleep(0.1)
        with broker._lock:
            holders = [lease.worker for lease in broker._leases.values()]
        check("the hung cell's worker holds its lease", len(holders) == 1, f"{holders}")
        if len(holders) != 1:
            for worker in multiprocessing.active_children():
                worker.kill()  # the rest of the grid then runs in-process
            sweep.join(timeout=300)
            return 1
        pid = int(holders[0].rsplit(":", 1)[1])
        os.kill(pid, signal.SIGKILL)
        print(f"  killed worker {holders[0]} with SIGKILL")

        sweep.join(timeout=300)
        hung = sweep.is_alive()
        if errors:
            raise errors[0]
        check("sweep completed (no hang)", not hung)
        if hung:
            return 1

        check("results bit-identical to serial", results == serial)

        reclaims = [e for e in ex.progress.events if e.startswith("reclaimed ")]
        check(
            "the killed worker's lease was reclaimed",
            len(reclaims) == 1 and reclaims[0].startswith(
                f"reclaimed {hung_label} from {holders[0]} "
            ),
            f"{reclaims}",
        )

        recorded = sorted(c.label for c in ex.progress.cells)
        check(
            "each cell recorded exactly once",
            recorded == sorted(t.label for t in tasks),
            f"{len(recorded)} records, {len(set(recorded))} distinct cells",
        )

    ok = all(checks)
    print("== distributed smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
