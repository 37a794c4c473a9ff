"""Synthesise kernels from declarative phase specifications.

A kernel is described as a sequence of *phases*; each phase is a loop
whose body mixes VALU compute, loads/stores with given cache-hit rates,
``waitcnt`` fences and optional barriers. The phase sequence itself can
be wrapped in an outer loop so the program re-executes its phases over
and over - the iterative structure the PC-indexed predictor exploits
(Figure 9).

Heterogeneity (e.g. ``quickS``'s per-wavefront divergence or ``dgemm``'s
mixed behaviour) is expressed by generating several program *variants*
with deterministically jittered trip counts and mixes; the kernel
round-robins variants across wavefronts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.gpu.isa import (
    Instruction,
    ProgramBuilder,
    Program,
    barrier,
    load,
    store,
    valu,
    waitcnt,
)
from repro.gpu.kernel import Kernel, WorkgroupGeometry


@dataclass(frozen=True)
class PhaseSpec:
    """One phase: a loop with a fixed instruction mix.

    Attributes:
        valu: VALU instructions per iteration.
        valu_cycles: pipeline occupancy of each VALU op.
        loads: loads per iteration.
        stores: stores per iteration.
        l1_hit: L1 hit rate of this phase's accesses.
        l2_hit: L2 hit rate of L1 misses.
        fence_every: a ``waitcnt(0)`` is placed after every N memory ops
            (1 = fully serialised latency; large = deep MLP).
        barrier_at_end: workgroup barrier at the end of the phase
            (after all iterations when unrolled).
        iterations: how many times the body repeats.
        unroll: when True (default) the iterations are emitted as
            straight-line code, so a PC uniquely identifies the upcoming
            instruction sequence - the property the PC-indexed predictor
            relies on (Section 4.4: kernel loop bodies are a few hundred
            instructions). When False a backwards branch is used.
    """

    valu: int = 8
    valu_cycles: int = 4
    loads: int = 2
    stores: int = 0
    l1_hit: float = 0.5
    l2_hit: float = 0.5
    fence_every: int = 2
    barrier_at_end: bool = False
    iterations: int = 10
    unroll: bool = True
    #: Fraction of accesses whose hit/miss outcome is iteration-dependent
    #: (see Instruction.pattern_jitter); 0 = fixed access pattern.
    pattern_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("phase needs at least one iteration")
        if self.fence_every < 1:
            raise ValueError("fence_every must be >= 1")
        if self.valu < 0 or self.loads < 0 or self.stores < 0:
            raise ValueError("instruction counts must be non-negative")
        if self.valu + self.loads + self.stores == 0:
            raise ValueError("phase body must contain at least one instruction")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: phases, outer repetition, launch geometry."""

    name: str
    phases: Tuple[PhaseSpec, ...]
    outer_iterations: int = 1
    n_workgroups: int = 8
    waves_per_workgroup: int = 4
    #: Number of program variants for wavefront heterogeneity (1 = none).
    n_variants: int = 1
    #: Relative jitter applied to variant trip counts / mixes, in [0, 1).
    variant_jitter: float = 0.0
    #: Variant ``v`` gets a preamble of ``v * stagger_valu`` compute
    #: instructions, de-phasing wavefronts from each other so the CU's
    #: per-epoch instruction mix keeps shifting (Section 4.1's second
    #: source of variation).
    stagger_valu: int = 0
    seed: int = 1234


@dataclass(frozen=True)
class WorkloadSpec:
    """A named application: one or more kernels run back-to-back."""

    name: str
    kernels: Tuple[KernelSpec, ...]
    category: str = "HPC"  # or "MI"
    description: str = ""


def _phase_body(phase: PhaseSpec) -> List[Instruction]:
    """One iteration of the phase's instruction mix.

    Instructions are frozen, so the body reuses one object per distinct
    instruction and every iteration shares the body's objects.
    """
    jitter = phase.pattern_jitter
    mem_ops: List[Instruction] = []
    if phase.loads:
        mem_ops += [load(phase.l1_hit, phase.l2_hit, pattern_jitter=jitter)] * phase.loads
    if phase.stores:
        mem_ops += [store(phase.l1_hit, phase.l2_hit, pattern_jitter=jitter)] * phase.stores
    n_mem = len(mem_ops)
    # Interleave compute between memory ops so issue pressure is spread.
    valu_per_slot = phase.valu // (n_mem + 1) if n_mem else phase.valu
    extra = phase.valu - valu_per_slot * (n_mem + 1) if n_mem else 0
    compute = [valu(phase.valu_cycles)] if phase.valu else []
    fence = waitcnt(0)

    body = compute * (valu_per_slot + extra)
    since_fence = 0
    for op in mem_ops:
        body.append(op)
        since_fence += 1
        if since_fence >= phase.fence_every:
            body.append(fence)
            since_fence = 0
        body += compute * valu_per_slot
    if since_fence:
        body.append(fence)
    return body


def _emit_phase(b: ProgramBuilder, phase: PhaseSpec) -> None:
    body = _phase_body(phase)
    if phase.unroll:
        for _ in range(phase.iterations):
            b.emit(*body)
    else:
        top = b.label()
        b.emit(*body)
        if phase.iterations > 1:
            b.loop_back(top, trips=phase.iterations - 1)
    if phase.barrier_at_end:
        b.emit(barrier())


def _jitter_phase(phase: PhaseSpec, rng: random.Random, jitter: float) -> PhaseSpec:
    if jitter <= 0.0:
        return phase

    def scale(value: int, lo: int = 0) -> int:
        factor = 1.0 + rng.uniform(-jitter, jitter)
        return max(lo, int(round(value * factor)))

    return replace(
        phase,
        valu=scale(phase.valu) if phase.valu else 0,
        loads=scale(phase.loads) if phase.loads else 0,
        iterations=scale(phase.iterations, lo=1),
    )


def build_program(
    phases: Sequence[PhaseSpec],
    outer_iterations: int = 1,
    name: str = "kernel",
    preamble_valu: int = 0,
) -> Program:
    """Compile a phase sequence into a single program."""
    b = ProgramBuilder()
    b.emit(*([valu()] * preamble_valu))
    outer_top = b.label()
    for phase in phases:
        _emit_phase(b, phase)
    if outer_iterations > 1:
        b.loop_back(outer_top, trips=outer_iterations - 1)
    return b.build(name)


def build_kernel(spec: KernelSpec, scale: float = 1.0) -> Kernel:
    """Build a :class:`Kernel` from a spec.

    ``scale`` multiplies the outer iteration count (and is the knob the
    experiment harness uses to shrink runs for tests: scale=0.25 runs a
    quarter of the work with identical per-epoch behaviour).
    """
    outer = max(1, int(round(spec.outer_iterations * scale)))
    rng = random.Random(spec.seed)
    variants = []
    for v in range(spec.n_variants):
        phases = tuple(_jitter_phase(p, rng, spec.variant_jitter) for p in spec.phases)
        variants.append(
            build_program(
                phases, outer, name=f"{spec.name}.v{v}", preamble_valu=v * spec.stagger_valu
            )
        )
    geometry = WorkgroupGeometry(spec.n_workgroups, spec.waves_per_workgroup)
    return Kernel(tuple(variants), geometry, name=spec.name)


def build_workload(spec: WorkloadSpec, scale: float = 1.0) -> List[Kernel]:
    """All kernels of a workload, in execution order."""
    return [build_kernel(k, scale) for k in spec.kernels]


__all__ = [
    "PhaseSpec",
    "KernelSpec",
    "WorkloadSpec",
    "build_program",
    "build_kernel",
    "build_workload",
]
