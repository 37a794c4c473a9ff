#!/usr/bin/env python3
"""End-to-end benchmark: oracle sweep, energy sweep, parallel sweep and
decision service, with per-layer attribution from a separate traced run.

    python3 benchmarks/perf/run.py --workload accuracy_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from
``src/``. With ``--trace 0`` the workload runs for ``--seconds`` and the
end-to-end metrics are reported; with ``--trace 1`` a fixed amount of
work runs once untraced and once with span wrappers installed, and the
per-layer metrics are reported (spans land in
``--trace-dir/<workload>.spans.jsonl``). Both modes print a table on
stderr and, as the last line of stdout, one JSON object::

    {"correct": true, "attempted": 60, "failed": 0,
     "metrics": {"epochs_per_s": {"value": 41.3, "unit": "1/s"}, ...}}

``--out FILE`` also writes the result with its ``sim_digest`` for
``compare.py``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed, work_cpus  # noqa: E402
from tracing import merge, summarize  # noqa: E402
from workloads import PROBES_PER_PASS, SETUP_SAMPLES, SWEEPS, WORK_DIR  # noqa: E402

WORKLOADS = (*SWEEPS, "serve_replay")

#: name -> unit. Measured with tracing off, on every workload. Times are
#: reference seconds (hostspeed.py): host seconds scaled by the host speed
#: sampled on the run's CPUs while it worked.
END_TO_END: Dict[str, str] = {
    "epochs_per_s": "1/s",  # simulated (serve: decided) epochs per second
    "peak_rss_mb": "MB",  # largest resident set of any workload process
    "setup_s": "s",  # child start to task list built / server spawn to listening
}

#: name -> unit. Measured by --trace 1; 0 where the workload does not
#: exercise the layer.
PER_LAYER: Dict[str, str] = {
    "sim.epochs": "count",
    "sim.committed": "count",
    "sim.accuracy_mean": "ratio",
    "gpu.engine.cycles": "count",
    "gpu.engine.waves_scanned": "count",
    "gpu.engine.batched_ratio": "ratio",
    "gpu.engine.calls": "count",
    "gpu.engine.self_s": "s",
    "gpu.memory.requests": "count",
    "gpu.memory.self_s": "s",
    "dvfs.oracle.samples": "count",
    "dvfs.oracle.restores": "count",
    "dvfs.oracle.snapshot_bytes": "bytes",
    "dvfs.oracle.cycles": "count",
    "dvfs.oracle.self_s": "s",
    "dvfs.oracle.preexec_s": "s",
    "core.predictor.self_s": "s",
    "core.controller.self_s": "s",
    "power.self_s": "s",
    "workloads.build_s": "s",
    "runtime.cell.self_s": "s",
    "runtime.parallel_efficiency": "ratio",
    "runtime.cell_p50_s": "s",
    "service.startup_s": "s",
    "service.batches": "count",
    "service.batch_size_mean": "count",
    "service.shed": "count",
    "service.decode_us": "us",
    "service.encode_us": "us",
    "service.loop_us": "us",
    "core.predictor.observe_us": "us",
    "core.controller.decide_us": "us",
    "learn.model.update_us": "us",
    "serve.pcstall.p50_ms": "ms",
    "serve.learned.p50_ms": "ms",
    "bench.prep_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "telemetry.overhead_ratio": "ratio",
    "obs.tracer_overhead_ratio": "ratio",
}

#: A child that runs longer than this is killed (the run must end in 180 s).
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    """A workload child crashed or printed no result."""


class Child(NamedTuple):
    started: float  # time.monotonic() at spawn
    setup_s: Optional[float]  # spawn to its "ready" line
    result: dict
    duration_s: float


def op_extras(ops_ms: Sequence[float]) -> Dict[str, float]:
    """Median and p99 op time, and how many ops lie beyond the p99.

    An op is one sweep cell (its best time over the passes) or one decision
    round trip. Reported, not gated: a single op is too short for the host
    speed to be known over it, and median op times of the same code spread
    2-22% between runs (round trips fall into a fast and a slow mode, cells
    differ from the host speed of their pass). See README.md."""
    p50 = statistics.median(ops_ms)
    p99 = statistics.quantiles(ops_ms, n=100, method="inclusive")[98]
    return {"ops": len(ops_ms), "op_p50_ms": p50, "op_p99_ms": p99,
            "ops_beyond_p99": sum(v > p99 for v in ops_ms)}


def speed_extras(speed: HostSpeed) -> Dict[str, float]:
    """How fast the host ran: reference seconds per host second overall."""
    t0, t1 = speed.samples[0][0], speed.samples[-1][0]
    return {"host_speed_samples": len(speed.samples), "reference_per_host_s": speed.scale(t0, t1)}


class Bench:
    """Spawns the workload's children and turns their results into metrics."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), self.env.get("PYTHONPATH")) if p
        )

    def spawn(self, *argv: str, probe: bool = False) -> Child:
        """Run one child to completion."""
        cmd = [sys.executable, str(HERE / "workloads.py"), *argv, "--seed", str(self.args.seed)]
        if self.args.smoke:
            cmd.append("--smoke")
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        # SIGTERM lets the child reap its own servers and pool workers.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.terminate)
        watchdog.start()
        setup, result = None, None
        try:
            for line in proc.stdout:
                if setup is None and line.strip() == "ready":
                    setup = time.monotonic() - t0
                elif line.startswith("{"):
                    result = json.loads(line)
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or (result is None and not probe):
            raise ChildFailed(f"{' '.join(argv)} exited {proc.returncode} without a result")
        return Child(t0, setup, result or {}, time.monotonic() - t0)

    # -- end-to-end -----------------------------------------------------

    def sweep(self) -> dict:
        w = self.args.workload
        passes: List[dict] = []
        probes: List[Child] = []
        probe = ("sweep", w, "--mode", "probe")
        with HostSpeed(work_cpus(SWEEPS[w].workers)) as speed:
            t_start = time.monotonic()
            while True:
                probes.extend(self.spawn(*probe, probe=True) for _ in range(PROBES_PER_PASS))
                child = self.spawn("sweep", w)
                passes.append(child.result)
                probes.append(child)
                # Start another pass only if it should end near the deadline.
                if time.monotonic() - t_start + child.duration_s / 2 >= self.args.seconds:
                    break
            while len(probes) < SETUP_SAMPLES:
                probes.append(self.spawn(*probe, probe=True))
        # A sweep op is one cell, timed as its best compute time over the
        # passes: interference from other processes only ever adds time.
        by_cell: Dict[str, List[float]] = {}
        rates, host_rates = [], []
        for p in passes:
            scale = speed.scale(p["t0"], p["t1"])
            rates.append(p["epochs"] / (p["wall_s"] * scale))
            host_rates.append(p["epochs"] / p["wall_s"])
            for label, seconds in p["cell_s"].items():
                by_cell.setdefault(label, []).append(seconds * scale)
        cell_ms = [min(s) * 1e3 for s in by_cell.values()]
        digests = {p["digest"] for p in passes if not p["failed"]}
        return {
            "metrics": {
                "epochs_per_s": statistics.median(rates),
                "setup_s": statistics.median(
                    c.setup_s * speed.scale(c.started, c.started + c.setup_s) for c in probes
                ),
            },
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "correct": len(digests) <= 1,
            "sim_digest": min(digests) if digests else None,
            "extras": {"passes": len(passes), "pass_rates": rates,
                       "host_pass_rates": host_rates, **op_extras(cell_ms),
                       **speed_extras(speed),
                       "errors": [e for p in passes for e in p["errors"]][:20]},
        }

    def serve(self) -> dict:
        # Client and server on two CPUs: with both on one, decisions/s
        # spread 10% between runs, against 6% on two.
        with HostSpeed(work_cpus(2)) as speed:
            r = self.spawn("serve", "--seconds", str(self.args.seconds)).result
        passes = r["passes"]
        rtt_ms: List[float] = []
        rates, host_rates = [], []
        for p in passes:
            scale = speed.scale(p["t0"], p["t1"])
            rates.append(p["decisions"] / (p["wall_s"] * scale))
            host_rates.append(p["decisions"] / p["wall_s"])
            rtt_ms.extend(s * scale * 1e3 for lat in p["latencies"].values() for s in lat)
        digests = set(r["digests"])
        return {
            "metrics": {
                "epochs_per_s": statistics.median(rates),
                "setup_s": statistics.median(
                    s * speed.scale(t, t + s) for t, s in r["startups"]
                ),
            },
            "attempted": r["attempted"],
            "failed": r["failed"],
            "correct": len(digests) == 1 and None not in digests,
            "sim_digest": next(iter(digests)) if len(digests) == 1 else None,
            "extras": {"passes": len(passes), "pass_rates": rates,
                       "host_pass_rates": host_rates, **op_extras(rtt_ms), **speed_extras(speed),
                       "prep_s": r["prep_s"], "sheds": sum(p["sheds"] for p in passes)},
        }

    # -- per layer ------------------------------------------------------

    def _span_prefix(self) -> Path:
        """Prefix of this run's span files, with earlier runs' files removed."""
        trace_dir = Path(self.args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        w = self.args.workload
        for stale in (*trace_dir.glob(f"{w}.*.part.jsonl"), trace_dir / f"{w}.spans.jsonl"):
            stale.unlink(missing_ok=True)
        return trace_dir / w

    def traced_sweep(self) -> dict:
        w = self.args.workload
        prefix = self._span_prefix()
        plain = self.spawn("sweep", w).result
        traced = self.spawn("sweep", w, "--mode", "traced", "--spans", str(prefix)).result
        spans = merge(prefix, f"{prefix}.spans.jsonl")
        layers = summarize([spans])
        over = self.spawn("overhead").result

        def self_s(name: str) -> float:
            return layers.get(name, {}).get("self_s", 0.0)

        hp = plain["hotpath"]
        values = {
            "sim.epochs": plain["epochs"],
            "sim.committed": plain["committed"],
            "sim.accuracy_mean": plain["accuracy_mean"],
            "gpu.engine.cycles": hp["cycles"],
            "gpu.engine.waves_scanned": hp["waves_scanned"],
            # Oracle pre-execution batches instructions that never commit.
            "gpu.engine.batched_ratio": hp["batched_instructions"] / max(1, plain["committed"]),
            "gpu.engine.calls": layers.get("gpu.engine", {}).get("calls", 0),
            "gpu.engine.self_s": self_s("gpu.engine"),
            "gpu.memory.requests": layers.get("gpu.memory", {}).get("calls", 0),
            "gpu.memory.self_s": self_s("gpu.memory"),
            "dvfs.oracle.samples": hp["oracle_samples"],
            "dvfs.oracle.restores": hp["restores"],
            "dvfs.oracle.snapshot_bytes": hp["snapshot_bytes"],
            "dvfs.oracle.cycles": hp["oracle_cycles"],
            "dvfs.oracle.self_s": self_s("dvfs.oracle"),
            "dvfs.oracle.preexec_s": layers.get("dvfs.oracle.preexec", {}).get("total_s", 0.0),
            "core.predictor.self_s": self_s("core.predictor"),
            "core.controller.self_s": self_s("core.controller"),
            "power.self_s": self_s("power"),
            "workloads.build_s": layers.get("workloads.build", {}).get("total_s", 0.0),
            "runtime.cell.self_s": self_s("runtime.cell"),
            "runtime.parallel_efficiency": plain["utilisation"],
            "runtime.cell_p50_s": statistics.median(plain["cell_s"].values())
            if plain["cell_s"] else 0.0,
            "bench.trace_overhead_ratio": traced["wall_s"] / plain["wall_s"],
            "telemetry.overhead_ratio": over["telemetry_ratio"],
            "obs.tracer_overhead_ratio": over["tracer_ratio"],
        }
        runs = (plain, traced, over)
        return {
            "metrics": values,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": plain["digest"] == traced["digest"],
            "sim_digest": plain["digest"],
            "extras": {"traced_digest": traced["digest"], "spans": str(spans),
                       "errors": (plain["errors"] + traced["errors"])[:20]},
        }

    def traced_serve(self) -> dict:
        prefix = self._span_prefix()
        r = self.spawn("serve", "--mode", "traced", "--spans", str(prefix)).result
        spans = merge(prefix, f"{prefix}.spans.jsonl")
        layers = summarize([spans])
        over = self.spawn("overhead").result
        plain, traced = r["plain"], r["traced"]
        counters = traced["metrics"]["counters"]
        observes = max(1, counters.get("service_decisions", 0))

        def per_call_us(name: str) -> float:
            layer = layers.get(name)
            return layer["self_s"] / layer["calls"] * 1e6 if layer else 0.0

        server = {k: v for k, v in layers.items() if k != "client.request"}
        server_us = sum(v["self_s"] for v in server.values()) / max(1, traced["decisions"]) * 1e6
        traced_rtt = [s for lat in traced["latencies"].values() for s in lat]
        sizes = plain["metrics"]["histograms"].get("service_batch_size", {})
        plain_counters = plain["metrics"]["counters"]
        values = {
            "service.startup_s": plain["startup"][1],
            "service.batches": plain_counters.get("service_batches", 0),
            "service.batch_size_mean": sizes.get("sum", 0.0) / max(1, sizes.get("total", 0)),
            "service.shed": plain_counters.get("service_shed", 0),
            "service.decode_us": sum(
                layers.get(n, {}).get("self_s", 0.0)
                for n in ("service.decode.frame", "service.decode.result")
            ) / observes * 1e6,
            "service.encode_us": layers.get("service.encode", {}).get("self_s", 0.0)
            / observes * 1e6,
            "service.loop_us": statistics.fmean(traced_rtt) * 1e6 - server_us,
            "core.predictor.observe_us": per_call_us("core.predictor"),
            "core.controller.decide_us": per_call_us("core.controller"),
            "learn.model.update_us": per_call_us("learn.model"),
            "serve.pcstall.p50_ms": statistics.median(plain["latencies"]["PCSTALL"]) * 1e3,
            "serve.learned.p50_ms": statistics.median(plain["latencies"]["LEARNED@bench"]) * 1e3,
            "bench.prep_s": r["prep_s"],
            "bench.trace_overhead_ratio": traced["wall_s"] / plain["wall_s"],
            "telemetry.overhead_ratio": over["telemetry_ratio"],
            "obs.tracer_overhead_ratio": over["tracer_ratio"],
        }
        return {
            "metrics": values,
            "attempted": r["attempted"] + over["attempted"],
            "failed": r["failed"] + over["failed"],
            "correct": plain["digest"] is not None and plain["digest"] == traced["digest"],
            "sim_digest": plain["digest"],
            "extras": {"traced_digest": traced["digest"], "spans": str(spans)},
        }

    def run(self) -> dict:
        serve = self.args.workload == "serve_replay"
        if self.args.trace:
            outcome = self.traced_serve() if serve else self.traced_sweep()
            names = PER_LAYER
        else:
            outcome = self.serve() if serve else self.sweep()
            # ru_maxrss is in KiB on Linux: the largest waited-for child.
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            outcome["metrics"]["peak_rss_mb"] = rss_kib / 1024.0
            names = END_TO_END
        outcome["metrics"] = {
            name: {"value": outcome["metrics"].get(name, 0), "unit": unit}
            for name, unit in names.items()
        }
        return outcome


def report(outcome: dict, args: argparse.Namespace) -> None:
    line = {
        "correct": bool(outcome["correct"] and not outcome["failed"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": outcome["metrics"],
    }
    width = max(len(n) for n in outcome["metrics"])
    print(f"{args.workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'})",
          file=sys.stderr)
    for name, m in outcome["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:>16.6g}  {m['unit']}", file=sys.stderr)
    fail_rate = line["failed"] / max(1, line["attempted"])
    print(f"  {'fail_rate':<{width}}  {fail_rate:>16.6g}  failed/attempted "
          f"({line['failed']}/{line['attempted']})", file=sys.stderr)
    print(f"  {'sim_digest':<{width}}  {outcome['sim_digest']}", file=sys.stderr)
    for key, value in outcome["extras"].items():
        if key == "errors":
            for err in value:
                print(f"  error: {err}", file=sys.stderr)
        else:
            print(f"  {key:<{width}}  {value}", file=sys.stderr)
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "result": line,
            "sim_digest": outcome["sim_digest"], "extras": outcome["extras"],
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line), flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-dir", default=str(WORK_DIR / "spans"),
                        help="where --trace 1 writes <workload>.spans.jsonl")
    parser.add_argument("--out", help="also write the result record to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="about one second of work per workload (tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program at {ROOT / 'src' / 'repro'}; run inside a full checkout",
              file=sys.stderr)
        return 2
    # Unwind on SIGTERM so the running child is terminated, not orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        outcome = Bench(args).run()
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    report(outcome, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
