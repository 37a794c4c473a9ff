"""Shared test helper functions (import side of tests/conftest.py)."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from typing import Dict, Iterable, List, Mapping, Tuple

from hypothesis import strategies as st

from repro.config import GpuConfig
from repro.core.predictors import Predictor
from repro.dvfs.simulation import RunResult
from repro.gpu.gpu import Gpu
from repro.gpu.isa import (
    CompiledProgram,
    Instruction,
    InstructionKind,
    Program,
    ProgramBuilder,
    barrier,
    branch,
    endpgm,
    load,
    salu,
    store,
    valu,
    waitcnt,
)
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.power.energy import EnergyBreakdown

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str, *args, pythonpath=SRC, **env) -> str:
    """Run ``code`` in a fresh interpreter importing ``repro`` from
    ``pythonpath``; fails the test on a non-zero exit, returns stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(pythonpath), **env),
        cwd=str(pythonpath), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


class ForcedLinePredictor(Predictor):
    """Predicts ``line`` for domain 0 and nothing for the others."""

    name = "FORCED"

    def __init__(self, n_domains: int, line) -> None:
        self.n_domains = n_domains
        self.line = line

    def observe(self, result, ctx) -> None:
        pass

    def predict_domains(self):
        return [self.line] + [None] * (self.n_domains - 1)


def make_run_result(**changes) -> RunResult:
    """A hand-built RunResult with every field set (no simulation)."""
    result = RunResult(
        design="PCSTALL",
        workload="dgemm",
        epochs=12,
        delay_ns=11234.5,
        energy=EnergyBreakdown(1.5e5, 2.25e4, 8.0, 12000.0),
        prediction_accuracy=0.93,
        frequency_residency={1.3: 0.25, 1.7: 0.75},
        total_committed=4096,
        total_transitions=3,
        pc_hit_ratio=0.5,
        completed=True,
        hotpath={"cycles": 100, "restores": 0},
    )
    return dataclasses.replace(result, **changes)


def make_loop_program(
    n_valu: int = 8,
    n_loads: int = 2,
    l1_hit: float = 0.5,
    trips: int = 50,
    with_barrier: bool = False,
    name: str = "loop",
):
    """A simple loop kernel body used across tests."""
    b = ProgramBuilder()
    top = b.label()
    for _ in range(n_valu):
        b.emit(valu())
    for _ in range(n_loads):
        b.emit(load(l1_hit, 0.5))
    b.emit(waitcnt(0))
    if with_barrier:
        b.emit(barrier())
    b.loop_back(top, trips=trips)
    return b.build(name)


def make_kernel(program, n_workgroups=4, waves_per_workgroup=2) -> Kernel:
    return Kernel.homogeneous(program, WorkgroupGeometry(n_workgroups, waves_per_workgroup))


#: A trip count no timing-contract epoch runs to the end of.
_ENDLESS_TRIPS = 1_000_000


def valu_loop() -> Program:
    """``valu(4)`` and a backwards branch: two commits per trip of five
    core cycles, so an epoch of ``T`` ns at ``f`` GHz commits
    ``2·T·f/5``."""
    return Program((valu(4), branch(0, _ENDLESS_TRIPS), endpgm()), name="valu_loop")


def memory_loop(l2_hit_rate: float) -> Program:
    """A ``load`` that misses L1 and then hits L2 (``l2_hit_rate`` 1.0)
    or goes to DRAM (0.0), ``waitcnt(0)`` on it and a backwards branch.
    Each trip waits out a memory latency that no core clock changes."""
    return Program(
        (load(0.0, l2_hit_rate, pattern_jitter=0.0), waitcnt(0),
         branch(0, _ENDLESS_TRIPS), endpgm()),
        name="memory_loop",
    )


def one_wave_commits(program: Program, engine: str, f_ghz: float, epoch_ns: float) -> int:
    """Commits of the first ``epoch_ns`` epoch of one wave of ``program``
    alone on a one-CU GPU clocked at ``f_ghz``, on ``engine``."""
    gpu = Gpu(GpuConfig(n_cus=1, waves_per_cu=1, engine=engine), f_ghz)
    gpu.load_kernel(make_kernel(program, n_workgroups=1, waves_per_workgroup=1))
    (commits,) = gpu.committed_per_domain(gpu.run_epoch(epoch_ns))
    return commits


_RATE = st.floats(0.0, 1.0, allow_nan=False)

_PLAIN_INSTRS = st.one_of(
    st.builds(valu, cycles=st.integers(1, 8)),
    st.builds(salu, cycles=st.integers(1, 4)),
    st.builds(load, l1_hit_rate=_RATE, l2_hit_rate=_RATE, pattern_jitter=_RATE),
    st.builds(store, l1_hit_rate=_RATE, l2_hit_rate=_RATE, pattern_jitter=_RATE),
    st.builds(waitcnt, target=st.integers(0, 4)),
    st.builds(barrier),
)


@st.composite
def programs(draw) -> Program:
    """Arbitrary valid programs: mixed body, backwards branches, ENDPGM."""
    instrs = list(draw(st.lists(_PLAIN_INSTRS, min_size=1, max_size=12)))
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.integers(0, len(instrs) - 1))
        instrs.append(branch(target, draw(st.integers(0, 5))))
    instrs.append(endpgm())
    return Program(tuple(instrs), name=draw(st.sampled_from(["k", "loop"])))


def decompile(compiled: CompiledProgram) -> Tuple[Instruction, ...]:
    """Rebuild the instruction list purely from a program's flat arrays.

    Equality with ``compiled.source.instructions`` proves the decode
    table lost nothing.
    """
    return tuple(
        Instruction(
            kind=InstructionKind(k),
            cycles=cy,
            l1_hit_rate=l1,
            l2_hit_rate=l2,
            pattern_jitter=j,
            wait_target=w,
            branch_target=b,
            trip_count=t,
        )
        for k, cy, l1, l2, j, w, b, t in zip(
            compiled.kinds,
            compiled.cycles,
            compiled.l1_hit_rates,
            compiled.l2_hit_rates,
            compiled.pattern_jitters,
            compiled.wait_targets,
            compiled.branch_targets,
            compiled.trip_counts,
        )
    )


#: Event phases the Perfetto exporter's contract admits.
_KNOWN_PHASES = frozenset("MXCiBE")


def validate_trace_events(
    events: Iterable[Mapping[str, object]]
) -> Dict[str, int]:
    """Validate Chrome-trace events against the viewer contract.

    Checks, raising ``ValueError`` on the first violation:

    * every event has ``ph`` (a known phase), ``name`` and ``pid``;
    * every non-metadata event has a numeric, non-negative ``ts``;
    * ``X`` (complete) events carry a ``tid`` and a numeric ``dur >= 0``;
    * ``B``/``E`` (duration) events match up per ``(pid, tid)`` - every
      ``E`` closes the most recent open ``B`` of the same name, nothing
      is left open at the end;
    * per ``(pid, tid)`` track, timestamps are non-decreasing.

    Returns per-phase event counts.
    """
    counts: Dict[str, int] = {}
    last_ts: Dict[Tuple[object, object], float] = {}
    open_b: Dict[Tuple[object, object], List[str]] = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        if "name" not in event:
            raise ValueError(f"event {i} ({ph}): missing name")
        if "pid" not in event:
            raise ValueError(f"event {i} ({ph}): missing pid")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i} ({ph} {event.get('name')!r}): bad ts {ts!r}")
        track = (event["pid"], event.get("tid"))
        if ts < last_ts.get(track, 0.0):
            raise ValueError(
                f"event {i} ({ph} {event.get('name')!r}): ts {ts} goes "
                f"backwards on track {track}"
            )
        last_ts[track] = float(ts)
        if ph == "X":
            if "tid" not in event:
                raise ValueError(f"event {i} (X {event.get('name')!r}): missing tid")
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"event {i} (X {event.get('name')!r}): bad dur {dur!r}"
                )
        elif ph == "B":
            open_b.setdefault(track, []).append(str(event.get("name")))
        elif ph == "E":
            stack = open_b.get(track)
            if not stack:
                raise ValueError(
                    f"event {i} (E {event.get('name')!r}): no open B on {track}"
                )
            opened = stack.pop()
            if "name" in event and str(event["name"]) != opened:
                raise ValueError(
                    f"event {i}: E {event['name']!r} closes B {opened!r} on {track}"
                )
    for track, stack in open_b.items():
        if stack:
            raise ValueError(f"unclosed B events on track {track}: {stack}")
    return counts


def validate_trace_json(path) -> Dict[str, int]:
    """Load an exported trace file and validate its events."""
    data = json.loads(pathlib.Path(path).read_text())
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: no traceEvents array")
    return validate_trace_events(events)
