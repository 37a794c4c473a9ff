#!/usr/bin/env python
"""Distributed-sweep smoke test: broker + two workers, one SIGKILLed.

End-to-end acceptance check for ``repro.runtime.distributed`` (run by
the CI ``distributed-smoke`` job, and runnable locally):

1. Run a quick design-matrix grid serially - the ground truth.
2. Serve the same grid from a ``SweepBroker`` (with the result cache
   attached) to two ``repro worker`` subprocesses. Worker A
   carries a ``REPRO_FAULT_PLAN`` that makes it hang on every cell it
   leases; once worker B has drained the rest of the grid, A - holding
   the one unfinished lease - is SIGKILLed.
3. Require: the sweep completes; results are bit-identical
   (``RunResult`` equality) to the serial run; at least one lease was
   reclaimed; and each cell was recorded exactly once.

Exit status 0 = all checks passed.
"""

import os
import pathlib
import signal
import subprocess
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
from repro.runtime.faults import FaultPlan, FaultSpec  # noqa: E402

WORKLOADS = ("dgemm", "hacc", "quickS")
DESIGNS = ("CRISP", "PCSTALL")


def quick_grid():
    cfg = small_config()
    return [
        SweepTask(workload=w, design=d, config=cfg, scale=0.2, max_epochs=40)
        for w in WORKLOADS
        for d in DESIGNS
    ]


def spawn_worker(port: int, name: str, fault_plan=None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULT_PLAN", None)
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan.to_json()
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"127.0.0.1:{port}", "--name", name],
        env=env, cwd=str(REPO),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def main() -> int:
    tasks = quick_grid()
    n = len(tasks)
    checks = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(ok)
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    print(f"== serial baseline ({n} cells)")
    serial = SweepExecutor(max_workers=1, cache=None).run(tasks)

    print("== remote sweep: broker + 2 workers, worker A SIGKILLed")
    with tempfile.TemporaryDirectory(prefix="repro-dsmoke-") as tmp:
        broker = SweepBroker(port=0, lease_s=4.0)
        ex = SweepExecutor(cache=ResultCache(pathlib.Path(tmp) / "cache"), broker=broker)
        remote: list = [None]
        errors: list = []

        def run_sweep() -> None:
            try:
                remote[0] = ex.run(tasks)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        sweep = threading.Thread(target=run_sweep, name="sweep")
        sweep.start()
        deadline = time.monotonic() + 30
        while broker.bound_port is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert broker.bound_port is not None, "broker never bound"
        port = broker.bound_port

        # Worker A hangs (far beyond any timeout) on every cell it
        # leases; start it alone so it is guaranteed to hold a lease.
        hang = FaultPlan(specs=(
            FaultSpec(cell="*", mode="hang", attempts=None, hang_s=600.0),
        ))
        worker_a = spawn_worker(port, "worker-a", fault_plan=hang)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with broker._lock:
                if broker._leases:
                    break
            time.sleep(0.05)
        else:
            raise AssertionError("worker A never leased a cell")

        worker_b = spawn_worker(port, "worker-b")

        # Wait until only worker A's hung cell remains, then kill A
        # mid-computation - the broker must reclaim and reassign it.
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            if len(ex.progress.cells) >= n - 1:
                break
            if not sweep.is_alive():
                break
            time.sleep(0.1)
        worker_a.send_signal(signal.SIGKILL)
        print(f"  killed worker A (pid {worker_a.pid}) with SIGKILL")

        sweep.join(timeout=300)
        hung = sweep.is_alive()
        worker_a.wait(timeout=30)
        try:
            b_out = worker_b.communicate(timeout=60)[0]
        except subprocess.TimeoutExpired:
            worker_b.kill()
            b_out = worker_b.communicate()[0]
        if errors:
            raise errors[0]
        check("sweep completed (no hang)", not hung)
        if hung:
            return 1
        print("  worker B output:", (b_out or "").strip().splitlines()[-1:])

        results = remote[0]
        check("results bit-identical to serial", results == serial)

        reclaimed = ex.progress.reclaims
        check("sweep_cells_reclaimed >= 1", reclaimed >= 1, f"got {reclaimed}")

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
