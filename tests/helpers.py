"""Shared test helper functions (import side of tests/conftest.py)."""

from __future__ import annotations

import dataclasses
import os
import pathlib
import subprocess
import sys

from hypothesis import strategies as st

from repro.core.predictors import Predictor
from repro.dvfs.simulation import RunResult
from repro.gpu.isa import (
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
    return Program.from_list(instrs, name=draw(st.sampled_from(["k", "loop"])))
