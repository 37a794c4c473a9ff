"""Workload children of the end-to-end benchmark (driven by run.py).

Every sweep pass, set-up probe and serving run executes in a fresh
interpreter, so each measurement starts cold the way a user's
``repro figure`` or ``repro serve`` does::

    python benchmarks/perf/workloads.py sweep WORKLOAD --seed N [--mode pass|probe|traced]
    python benchmarks/perf/workloads.py serve --seed N --seconds S [--mode traced --spans P]
    python benchmarks/perf/workloads.py overhead --seed N

(with ``PYTHONPATH=src``; run.py sets it).

A sweep child prints ``ready`` once its imports are done and its task
list is built (run.py times set-up up to that line), then one JSON line
with its result. The serve child spawns ``repro serve`` itself and
reports every server start-up it timed.

Inputs come from the seed: each app of the suite is registered again as
``<app>.s<seed>`` with its kernels' generator seeds offset by the
benchmark seed (the seed drives the variant jitter of dgemm and
quickS), and ``SimConfig.seed`` is the seed. Only public entry points
run the program: ``SweepExecutor.run``, ``run_task`` and ``repro
serve``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import SEQ_CONN_STRIDE, SpanLog, install_simulation  # noqa: E402

#: Scratch space (prepared traces, model registry, span files).
WORK_DIR = HERE / ".work"

#: Kernel generator seeds move this far per benchmark seed.
SEED_STRIDE = 1_000_003

#: Cap on simulated epochs per cell; every cell here finishes far below.
MAX_EPOCHS = 2_000


@dataclass(frozen=True)
class Sweep:
    apps: Sequence[str]
    designs: Sequence[str]
    scale: float
    collect_accuracy: bool
    workers: int


_HEADLINE_APPS = ("comd", "xsbench", "hacc", "dgemm", "BwdBN")
#: The suite, costliest cells first (lulesh's take about 0.9 s, the last
#: ones about 0.05 s), so a parallel pass does not end with one worker
#: still running a large cell while the other idles.
_ALL_APPS = (
    "lulesh", "pennant", "hpgmg", "xsbench", "hacc", "minife", "comd", "dgemm",
    "FwdSoft", "BwdBN", "snapc", "BwdPool", "quickS", "FwdPool", "BwdSoft", "FwdBN",
)

SWEEPS: Dict[str, Sweep] = {
    # Fig 1/14/18 path: oracle fork + pre-execution dominates.
    "accuracy_sweep": Sweep(_HEADLINE_APPS, ("PCSTALL", "ACCPC", "ORACLE", "CRISP"),
                            0.1, True, 1),
    # Fig 15-17 path: no oracle work, engine/memory/predictor/power exposed.
    "energy_sweep": Sweep(_ALL_APPS, ("STATIC@1.7", "STALL", "CRISP", "PCSTALL"),
                          0.1, False, 1),
    # Short cells on two workers: pool start-up, pickling and dispatch show.
    "parallel_sweep": Sweep(_ALL_APPS, ("STATIC@1.3", "STATIC@1.7", "STATIC@2.2",
                                        "STALL", "CRISP", "PCSTALL"), 0.1, False, 2),
}

SMOKE_SWEEPS: Dict[str, Sweep] = {
    "accuracy_sweep": Sweep(("comd", "dgemm"), ("PCSTALL", "ORACLE"), 0.05, True, 1),
    "energy_sweep": Sweep(("xsbench", "dgemm"), ("STATIC@1.7", "PCSTALL"), 0.05, False, 1),
    "parallel_sweep": Sweep(("xsbench", "dgemm", "hacc", "comd"), ("STATIC@1.7", "PCSTALL"),
                            0.05, False, 2),
}


@dataclass(frozen=True)
class Serving:
    replay_scale: float  # xsbench trace the connections replay
    train_scale: float  # dgemm traces the LEARNED model trains on
    passes: int  # server start-ups in a timed run
    trace_sessions: int  # sessions per connection in a traced run


SERVING = Serving(replay_scale=0.3, train_scale=0.3, passes=4, trace_sessions=8)
SMOKE_SERVING = Serving(replay_scale=0.05, train_scale=0.1, passes=2, trace_sessions=2)

#: The two connections differ only in predictor.
SERVE_DESIGNS = ("PCSTALL", "LEARNED@bench")
TRAIN_DESIGNS = ("PCSTALL", "STATIC@1.3", "STATIC@2.2")

#: Set-up samples per run (sweeps add probe children, serve probe servers).
#: Each costs about 0.3 s; the run reports their median.
SETUP_SAMPLES = 11

#: Probes before each pass or server. The host has slow phases a few
#: seconds long, so samples spread over the run give a steadier median
#: than a block of probes at its end.
PROBES_PER_PASS = 2

#: A reply slower than this fails its request.
REPLY_TIMEOUT_S = 10.0


def seeded_suite(seed: int) -> Dict[str, str]:
    """Register the seed's copy of every suite app; app -> registered name."""
    from repro.workloads import WORKLOADS

    names = {}
    for app in _ALL_APPS:
        spec = WORKLOADS[app]
        name = f"{app}.s{seed}"
        WORKLOADS[name] = replace(spec, name=name, kernels=tuple(
            replace(k, seed=k.seed + SEED_STRIDE * seed) for k in spec.kernels
        ))
        names[app] = name
    return names


def base_app(name: str) -> str:
    return name.split(".s", 1)[0]


def cell_digest(label: str, result) -> Dict[str, object]:
    """Canonical simulated outcome of one cell (hot-path counts excluded:
    they describe the simulator's work, not the simulated GPU)."""
    from repro.runtime.cache import canonicalize

    app = base_app(result.workload)
    return {"cell": label, "result": canonicalize(replace(result, workload=app, hotpath=None))}


def digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def emit(result: Dict[str, object]) -> None:
    print(json.dumps(result), flush=True)


# ----------------------------------------------------------------------
# Sweeps


def sweep_child(args) -> int:
    from repro.config import small_config
    from repro.runtime.executor import (
        ON_EXHAUSTED_RECORD,
        FailedCell,
        RetryPolicy,
        SweepExecutor,
        SweepTask,
    )
    from repro.runtime.profiling import HotPathCounters
    from repro.validation.invariants import audit_run_result

    spec = (SMOKE_SWEEPS if args.smoke else SWEEPS)[args.workload]
    config = small_config(seed=args.seed)
    names = seeded_suite(args.seed)
    tasks = [
        SweepTask(names[app], design, config, scale=spec.scale, max_epochs=MAX_EPOCHS,
                  oracle_sample_freqs=4, collect_accuracy=spec.collect_accuracy)
        for app in spec.apps for design in spec.designs
    ]
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    log = None
    if args.mode == "traced":
        log = SpanLog(args.spans)
        install_simulation(log)

    executor = SweepExecutor(
        max_workers=spec.workers, retry=RetryPolicy(on_exhausted=ON_EXHAUSTED_RECORD)
    )
    errors: List[str] = []
    t0 = time.monotonic()
    try:
        results = executor.run(tasks)
    except Exception as exc:  # the whole sweep failed: every cell counts
        results = [None] * len(tasks)
        errors.append(f"sweep raised {exc!r}")
    t1 = time.monotonic()
    if log is not None:
        log.flush()

    failed = epochs = committed = 0
    accuracies: List[float] = []
    hotpath = HotPathCounters()
    cells = []
    cell_wall = {c.label: c.wall_s for c in executor.progress.cells}
    cell_s = {}  # compute seconds per cell that ran
    grid = config.dvfs.frequencies_ghz
    for task, result in zip(tasks, results):
        label = f"{base_app(task.workload)}/{task.design}"
        if result is None or isinstance(result, FailedCell):
            failed += 1
            cells.append({"cell": label, "failed": True})
            if result is not None:
                errors.append(f"{label}: {result.error}")
            continue
        violations = audit_run_result(result, grid, subject=label)
        if violations or not result.completed:
            failed += 1
            errors.extend(v.render() for v in violations)
            if not result.completed:
                errors.append(f"{label}: run did not complete")
        epochs += result.epochs
        cell_s[label] = cell_wall[task.label]
        committed += result.total_committed
        if result.prediction_accuracy is not None:
            accuracies.append(result.prediction_accuracy)
        hotpath.merge(result.hotpath or {})
        cells.append(cell_digest(label, result))

    emit({
        "t0": t0,
        "t1": t1,
        "wall_s": t1 - t0,
        "attempted": len(tasks),
        "failed": failed,
        "epochs": epochs,
        "committed": committed,
        "accuracy_mean": statistics.fmean(accuracies) if accuracies else 0.0,
        "cell_s": cell_s,
        "utilisation": executor.progress.utilisation,
        "hotpath": hotpath.as_dict(),
        "digest": digest(cells),
        "errors": errors[:20],
    })
    return 0


def overhead_child(args) -> int:
    """Telemetry-on and tracing-on wall time of one accuracy cell, as
    ratios against the same cell with both off."""
    from repro.config import small_config
    from repro.obs import Tracer
    from repro.runtime.executor import SweepTask, run_task
    from repro.telemetry import EpochTraceRecorder, TelemetryConfig

    names = seeded_suite(args.seed)
    task = SweepTask(names["comd"], "PCSTALL", small_config(seed=args.seed),
                     scale=0.05 if args.smoke else 0.1, max_epochs=MAX_EPOCHS,
                     oracle_sample_freqs=4, collect_accuracy=True)

    def plain():
        return run_task(task)

    def telemetry():
        with EpochTraceRecorder(TelemetryConfig()) as recorder:
            return run_task(task, recorder=recorder)

    def tracer():
        return run_task(task, tracer=Tracer())

    kinds = {"off": plain, "telemetry": telemetry, "tracer": tracer}
    reference = cell_digest(task.label, plain())  # also warms the process
    walls: Dict[str, List[float]] = {k: [] for k in kinds}
    failed = 0
    rounds = 1 if args.smoke else 3
    order = list(kinds)
    for r in range(rounds):
        for kind in order[r % 3:] + order[:r % 3]:
            t0 = time.perf_counter()
            result = kinds[kind]()
            walls[kind].append(time.perf_counter() - t0)
            failed += cell_digest(task.label, result) != reference
    off = statistics.median(walls["off"])
    emit({
        "telemetry_ratio": statistics.median(walls["telemetry"]) / off,
        "tracer_ratio": statistics.median(walls["tracer"]) / off,
        "attempted": rounds * len(kinds),
        "failed": failed,
    })
    return 0


# ----------------------------------------------------------------------
# Serving


@dataclass
class Connection:
    """One client connection: replays the trace, one session per pass."""

    index: int
    design: str
    open_frame: bytes
    frames: List[bytes]  # pre-encoded observe frames, epoch order
    expected: List[List[float]]  # offline decision k (open reply = 0)
    sock: Optional[socket.socket] = None
    buf: bytearray = field(default_factory=bytearray)
    k: int = 0  # decision awaited
    sent_ns: int = 0
    shed_tries: int = 0
    resend_at: float = 0.0
    closing: bool = False
    done: bool = False
    sessions: int = 0
    served: List[List[float]] = field(default_factory=list)
    first_session: Optional[List[List[float]]] = None
    latencies: List[float] = field(default_factory=list)  # round trips, s
    attempted: int = 0
    failed: int = 0
    sheds: int = 0

    def reset_counts(self) -> None:
        self.latencies, self.served = [], []
        self.first_session = None
        self.sessions = self.attempted = self.failed = self.sheds = 0
        self.done = False


def record_trace(path: Path, workload: str, design: str, config, scale: float,
                 collect_accuracy: bool) -> Path:
    from repro.runtime.executor import SweepTask, run_task
    from repro.telemetry import EpochTraceRecorder, TelemetryConfig

    recorder = EpochTraceRecorder(TelemetryConfig(
        ring_size=0, jsonl_path=str(path), record_pc_attribution=False,
        record_observations=True,
    ))
    with recorder:
        run_task(SweepTask(workload, design, config, scale=scale, max_epochs=MAX_EPOCHS,
                           oracle_sample_freqs=4, collect_accuracy=collect_accuracy),
                 recorder=recorder)
    return path


def offline_decisions(design: str, trace) -> List[List[float]]:
    """The decision stream the server must reproduce, computed in-process
    through the same controller path the server builds per session."""
    from repro.dvfs.designs import make_controller
    from repro.service import protocol as proto

    config = proto.sim_config_from_wire(trace.sim_config_wire)
    controller = make_controller(design, config, proto.objective_from_name(trace.objective))
    out = [list(controller.decide())]
    for obs in trace.observations:
        truth = None
        if controller.predictor.needs_elapsed_truth:
            truth = proto.lines_from_wire(obs["truth"])
        controller.observe(proto.epoch_result_from_wire(obs["result"]), true_domain_lines=truth)
        out.append(list(controller.decide()))
    return out


def prepare_serving(seed: int, serving: Serving, work: Path) -> List[Connection]:
    """Record the replayed trace, train LEARNED@bench, pre-encode frames."""
    from repro.config import small_config
    from repro.learn import MODEL_DIR_ENV, ModelRegistry, OnlineRLSModel, extract_dataset
    from repro.service import protocol as proto
    from repro.service.replay import load_replay_trace

    config = small_config(seed=seed)
    names = seeded_suite(seed)
    replay_path = record_trace(work / "replay.jsonl", names["xsbench"], "PCSTALL", config,
                               serving.replay_scale, False)
    train_paths = [
        record_trace(work / f"train-{i}.jsonl", names["dgemm"], design, config,
                     serving.train_scale, True)
        for i, design in enumerate(TRAIN_DESIGNS)
    ]
    dataset = extract_dataset(train_paths, eval_fraction=0.25)
    rows = dataset.rows("train")
    model = OnlineRLSModel.train(
        dataset.features[rows], dataset.next_f[rows], dataset.next_commits[rows],
        seed=seed, labels=dataset.labels[rows], anchor_freqs=dataset.frequency_range(),
    )
    models = work / "models"
    ModelRegistry(models).save(model, {"dataset_hash": dataset.content_hash()}, name="bench")
    os.environ[MODEL_DIR_ENV] = str(models)

    trace = load_replay_trace(str(replay_path))
    conns = []
    for index, design in enumerate(SERVE_DESIGNS):
        expected = offline_decisions(design, trace)
        if design == trace.design and expected[:len(trace.chosen)] != trace.chosen:
            raise RuntimeError(f"offline {design} decisions differ from the recorded run")
        frames = [
            proto.encode_frame({
                "type": proto.MSG_OBSERVE, "seq": index * SEQ_CONN_STRIDE + epoch,
                "epoch": epoch, "result": obs["result"], "truth": obs["truth"],
            })
            for epoch, obs in enumerate(trace.observations)
        ]
        open_frame = proto.encode_frame({
            "type": proto.MSG_OPEN, "protocol": proto.PROTOCOL_VERSION, "design": design,
            "config": trace.sim_config_wire, "objective": trace.objective,
        })
        conns.append(Connection(index, design, open_frame, frames, expected))
    return conns


def _read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """First stdout line of ``proc`` (binary, unbuffered pipe)."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    data = b""
    deadline = time.monotonic() + timeout_s
    try:
        while not data.endswith(b"\n"):
            if not sel.select(max(0.0, deadline - time.monotonic())):
                raise RuntimeError("server printed no listening line in time")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("server exited before listening")
            data += chunk
    finally:
        sel.close()
    return data.decode("utf-8").strip()


def _get_json(port: int, path: str) -> Dict[str, object]:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))


class Server:
    """A ``repro serve`` child: start, time its start-up, drain it."""

    def __init__(self, cmd: List[str]) -> None:
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0)
        try:
            line = _read_line(self.proc, 60.0)
            self.startup_s = time.monotonic() - self.spawned
            # "decision service listening on HOST:PORT, health on :HPORT"
            where, _, health = line.partition(", health on :")
            self.port = int(where.rsplit(":", 1)[1])
            self.health_port = int(health)
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def drain(self) -> bool:
        """SIGTERM and wait; True for a clean drain."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        return self.proc.returncode == 0 and b"drained:" in out


def _close_session(c: Connection, sel: selectors.BaseSelector) -> None:
    if c.sock is not None:
        sel.unregister(c.sock)
        c.sock.close()
        c.sock = None


def _send(c: Connection, frame: bytes, new_request: bool) -> None:
    c.sent_ns = time.perf_counter_ns()
    c.sock.sendall(frame)
    if new_request:
        c.attempted += 1
        c.shed_tries = 0


def replay(conns: List[Connection], port: int, deadline: Optional[float] = None,
           sessions: Optional[int] = None, log: Optional[SpanLog] = None) -> None:
    """Closed loop: each connection keeps one request in flight, replaying
    its frames session after session until ``deadline`` (perf_counter)
    or until it completed ``sessions`` sessions."""
    from repro.runtime.wire import decode_payload
    from repro.service import protocol as proto

    sel = selectors.DefaultSelector()

    def keep_going(c: Connection) -> bool:
        if deadline is not None:
            return time.perf_counter() < deadline
        return c.sessions < sessions

    def start(c: Connection) -> None:
        c.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        c.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        c.buf, c.served, c.k, c.closing = bytearray(), [], 0, False
        sel.register(c.sock, selectors.EVENT_READ, c)
        _send(c, c.open_frame, True)

    def finish_or_restart(c: Connection) -> None:
        _close_session(c, sel)
        if keep_going(c):
            start(c)
        else:
            c.done = True

    def fail(c: Connection) -> None:
        # The session is abandoned; it still counts towards ``sessions``
        # so a server that fails every request cannot stall the loop.
        c.failed += 1
        c.sessions += 1
        finish_or_restart(c)

    def on_message(c: Connection, msg: Dict[str, object], now_ns: int) -> None:
        mtype = msg.get("type")
        if c.closing:
            finish_or_restart(c)
            return
        if mtype == proto.MSG_SHED:
            c.sheds += 1
            c.shed_tries += 1
            if c.shed_tries > 5:
                fail(c)
            else:
                c.resend_at = time.perf_counter() + 0.01 * 2 ** c.shed_tries
            return
        want_seq = None if c.k == 0 else c.index * SEQ_CONN_STRIDE + c.k - 1
        if mtype not in (proto.MSG_OPEN_OK, proto.MSG_DECISION) or msg.get("seq") != want_seq:
            fail(c)
            return
        c.latencies.append((now_ns - c.sent_ns) / 1e9)
        if log is not None:
            log.record("client.request", c.sent_ns, now_ns, f"{c.index}:{c.k}")
        decision = msg.get("decision")
        if decision != c.expected[c.k]:
            c.failed += 1
        c.served.append(decision)
        c.k += 1
        if c.k > len(c.frames):
            c.sessions += 1
            if c.first_session is None:
                c.first_session = c.served
        if c.k > len(c.frames) or (deadline is not None and not keep_going(c)):
            c.closing = True
            c.sock.sendall(proto.encode_frame({"type": proto.MSG_CLOSE}))
            return
        _send(c, c.frames[c.k - 1], True)

    try:
        for c in conns:
            start(c)
        while not all(c.done for c in conns):
            now = time.perf_counter()
            for c in conns:
                if c.resend_at and now >= c.resend_at and c.sock is not None:
                    c.resend_at = 0.0
                    _send(c, c.frames[c.k - 1] if c.k else c.open_frame, False)
                elif not c.done and (time.perf_counter_ns() - c.sent_ns) / 1e9 > REPLY_TIMEOUT_S:
                    fail(c)
            for key, _ in sel.select(timeout=0.05):
                c = key.data
                try:
                    chunk = c.sock.recv(1 << 16)
                except OSError:
                    chunk = b""
                now_ns = time.perf_counter_ns()
                if not chunk:
                    if c.closing:
                        finish_or_restart(c)
                    else:
                        fail(c)
                    continue
                c.buf.extend(chunk)
                while c.sock is not None and len(c.buf) >= 4:
                    length = int.from_bytes(c.buf[:4], "big")
                    if len(c.buf) < 4 + length:
                        break
                    payload = bytes(c.buf[4:4 + length])
                    del c.buf[:4 + length]
                    on_message(c, decode_payload(payload), now_ns)
    finally:
        for c in conns:
            _close_session(c, sel)
        sel.close()


def serve_pass(cmd: List[str], conns: List[Connection], log: Optional[SpanLog] = None,
               seconds: Optional[float] = None, sessions: Optional[int] = None):
    """Start a server, replay against it, read /metrics, drain it."""
    for c in conns:
        c.reset_counts()
    server = Server(cmd)
    try:
        t0 = time.monotonic()
        replay(conns, server.port,
               deadline=None if seconds is None else time.perf_counter() + seconds,
               sessions=sessions, log=log)
        t1 = time.monotonic()
        metrics = _get_json(server.health_port, "/metrics")
    except BaseException:
        server.kill()
        raise
    clean = server.drain()
    streams = [c.first_session for c in conns]
    return {
        "startup": [server.spawned, server.startup_s],
        "t0": t0,
        "t1": t1,
        "wall_s": t1 - t0,
        "metrics": metrics,
        "decisions": sum(len(c.latencies) for c in conns),
        "latencies": {c.design: list(c.latencies) for c in conns},
        "attempted": sum(c.attempted for c in conns),
        "failed": sum(c.failed for c in conns) + (not clean),
        "sheds": sum(c.sheds for c in conns),
        "digest": digest(streams) if all(s is not None for s in streams) else None,
    }


def probe_server(cmd: List[str]) -> List[float]:
    """[spawn time, start-up s] of a server that is drained straight away."""
    server = Server(cmd)
    try:
        # /healthz answers once the loop runs, so SIGTERM has its handler.
        _get_json(server.health_port, "/healthz")
    except BaseException:
        server.kill()
        raise
    server.drain()
    return [server.spawned, server.startup_s]


def serve_child(args) -> int:
    serving = SMOKE_SERVING if args.smoke else SERVING
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR))
    try:
        t0 = time.perf_counter()
        conns = prepare_serving(args.seed, serving, work)
        prep_s = time.perf_counter() - t0
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--health-port", "0",
               "--model-dir", str(work / "models")]
        if args.mode == "traced":
            result = serve_traced(args, serving, conns, cmd)
        else:
            passes, startups = [], []
            for _ in range(serving.passes):
                startups.extend(probe_server(cmd) for _ in range(PROBES_PER_PASS))
                passes.append(serve_pass(cmd, conns, seconds=args.seconds / serving.passes))
                startups.append(passes[-1]["startup"])
            while len(startups) < SETUP_SAMPLES:
                startups.append(probe_server(cmd))
            result = {
                "passes": passes,
                "startups": startups,
                "attempted": sum(p["attempted"] for p in passes),
                "failed": sum(p["failed"] for p in passes),
                "digests": [p["digest"] for p in passes],
            }
            for p in passes:
                del p["metrics"]
        result["prep_s"] = prep_s
        emit(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def serve_traced(args, serving: Serving, conns: List[Connection], cmd: List[str]):
    """One untraced and one traced server, the same sessions on each."""
    sessions = serving.trace_sessions
    plain = serve_pass(cmd, conns, sessions=sessions)
    client_log = SpanLog(f"{args.spans}.client")
    traced_cmd = [sys.executable, str(HERE / "traced_serve.py"), f"{args.spans}.server",
                  *cmd[3:]]
    traced = serve_pass(traced_cmd, conns, log=client_log, sessions=sessions)
    client_log.flush()
    return {
        "plain": plain,
        "traced": traced,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("sweep", "serve", "overhead"))
    parser.add_argument("workload", nargs="?", default="serve_replay")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("pass", "probe", "traced"), default="pass")
    parser.add_argument("--spans", help="span file prefix (traced mode)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so servers and pool workers are reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return {"sweep": sweep_child, "serve": serve_child, "overhead": overhead_child}[
        args.kind](args)


if __name__ == "__main__":
    sys.exit(main())
