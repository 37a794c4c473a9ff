"""Shared test helper functions (import side of tests/conftest.py)."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.predictors import Predictor
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
