"""A minimal GCN/Vega-flavoured instruction set for the timing simulator.

The DVFS predictor only observes timing events (commits, stalls, PCs), so
the ISA models *timing semantics*, not data values:

* ``VALU``/``SALU`` — compute; cost is CU cycles, so wall-clock time scales
  inversely with the CU's frequency.
* ``LOAD``/``STORE`` — issue in one cycle, complete after a latency mostly
  paid in the fixed-frequency memory domain; tracked by the wavefront's
  outstanding-operation counters (``vmcnt`` analogue).
* ``WAITCNT`` — block the wavefront until its outstanding counter drops to
  the operand; this is where memory stall time is observable (the STALL
  model measures time blocked here, exactly as the paper measures time
  blocked at ``s_waitcnt``).
* ``BARRIER`` — block until all wavefronts of the workgroup arrive.
* ``BRANCH`` — a backwards loop branch with a per-wavefront trip count;
  this is what makes kernel execution iterative, which the PC-indexed
  predictor exploits.
* ``ENDPGM`` — terminates the wavefront.

Instructions are 4 bytes (``GpuConfig.instruction_bytes``), so the
PC-table's 4-bit offset covers 4 instructions per entry as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple


class InstructionKind(enum.IntEnum):
    """Timing classes of instructions."""

    VALU = 0
    SALU = 1
    LOAD = 2
    STORE = 3
    WAITCNT = 4
    BARRIER = 5
    BRANCH = 6
    ENDPGM = 7


@dataclass(frozen=True)
class Instruction:
    """One static instruction of a kernel.

    Attributes:
        kind: timing class.
        cycles: CU cycles the instruction occupies its wavefront for
            (compute kinds); issue cost for memory kinds.
        l1_hit_rate: probability-like fraction of accesses that hit in L1
            (memory kinds). Realised deterministically by the wavefront's
            access counters so execution is reproducible and snapshotable.
        l2_hit_rate: fraction of L1 misses that hit in L2.
        pattern_jitter: fraction of this access's hit/miss outcome that
            varies from loop iteration to loop iteration (0 = the static
            instruction always hits or always misses, like a fixed access
            pattern; 1 = fully iteration-dependent, like data-dependent
            random lookups). Memory kinds only.
        wait_target: for ``WAITCNT``, the outstanding count the wavefront
            must drain to before proceeding (0 = wait for all).
        branch_target: for ``BRANCH``, the *instruction index* jumped to
            while iterations remain.
        trip_count: for ``BRANCH``, how many times the backwards jump is
            taken before falling through.
    """

    kind: InstructionKind
    cycles: int = 1
    l1_hit_rate: float = 0.0
    l2_hit_rate: float = 0.0
    pattern_jitter: float = 0.15
    wait_target: int = 0
    branch_target: int = 0
    trip_count: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("instruction cost must be at least one cycle")
        if not 0.0 <= self.l1_hit_rate <= 1.0:
            raise ValueError("l1_hit_rate must be within [0, 1]")
        if not 0.0 <= self.l2_hit_rate <= 1.0:
            raise ValueError("l2_hit_rate must be within [0, 1]")
        if not 0.0 <= self.pattern_jitter <= 1.0:
            raise ValueError("pattern_jitter must be within [0, 1]")
        if self.kind is InstructionKind.BRANCH:
            if self.trip_count < 0:
                raise ValueError("trip_count must be non-negative")
            if self.branch_target < 0:
                raise ValueError("branch_target must be non-negative")


def valu(cycles: int = 4) -> Instruction:
    """A vector-ALU instruction (default 4-cycle pipeline occupancy)."""
    return Instruction(InstructionKind.VALU, cycles=cycles)


def salu(cycles: int = 1) -> Instruction:
    """A scalar-ALU instruction."""
    return Instruction(InstructionKind.SALU, cycles=cycles)


def load(
    l1_hit_rate: float = 0.5,
    l2_hit_rate: float = 0.5,
    cycles: int = 1,
    pattern_jitter: float = 0.15,
) -> Instruction:
    """A vector memory load."""
    return Instruction(
        InstructionKind.LOAD,
        cycles=cycles,
        l1_hit_rate=l1_hit_rate,
        l2_hit_rate=l2_hit_rate,
        pattern_jitter=pattern_jitter,
    )


def store(
    l1_hit_rate: float = 0.7,
    l2_hit_rate: float = 0.6,
    cycles: int = 1,
    pattern_jitter: float = 0.15,
) -> Instruction:
    """A vector memory store (write-through; completion still tracked)."""
    return Instruction(
        InstructionKind.STORE,
        cycles=cycles,
        l1_hit_rate=l1_hit_rate,
        l2_hit_rate=l2_hit_rate,
        pattern_jitter=pattern_jitter,
    )


def waitcnt(target: int = 0) -> Instruction:
    """An ``s_waitcnt``-style fence on outstanding memory operations."""
    return Instruction(InstructionKind.WAITCNT, wait_target=target)


def barrier() -> Instruction:
    """A workgroup execution barrier (``s_barrier``)."""
    return Instruction(InstructionKind.BARRIER)


def branch(target: int, trip_count: int) -> Instruction:
    """A backwards branch forming a loop taken ``trip_count`` times."""
    return Instruction(InstructionKind.BRANCH, branch_target=target, trip_count=trip_count)


def endpgm() -> Instruction:
    return Instruction(InstructionKind.ENDPGM)


@dataclass(frozen=True)
class Program:
    """An immutable sequence of instructions shared by all wavefronts.

    The program is validated on construction: it must end with ``ENDPGM``
    and all branch targets must be backwards and in range (forward control
    flow is modelled by generating different programs, which is sufficient
    for phase-behaviour studies).
    """

    instructions: Tuple[Instruction, ...]
    name: str = "kernel"

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError("program must not be empty")
        if self.instructions[-1].kind is not InstructionKind.ENDPGM:
            raise ValueError("program must end with ENDPGM")
        for idx, instr in enumerate(self.instructions):
            if instr.kind is InstructionKind.BRANCH:
                if instr.branch_target >= idx:
                    raise ValueError(
                        f"branch at {idx} must jump backwards (target {instr.branch_target})"
                    )
            if instr.kind is InstructionKind.ENDPGM and idx != len(self.instructions) - 1:
                raise ValueError("ENDPGM must be the final instruction")

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self.instructions[idx]

    def pc_of(self, idx: int, instruction_bytes: int = 4) -> int:
        """Byte address of the instruction at ``idx``."""
        return idx * instruction_bytes

    @property
    def compiled(self) -> "CompiledProgram":
        """This program's flat decode table, built once and cached.

        The cache lives in the instance ``__dict__`` (dict mutation
        bypasses the frozen ``__setattr__``).
        """
        out = self.__dict__.get("_compiled")
        if out is None:
            out = CompiledProgram(self)
            self.__dict__["_compiled"] = out
        return out


class CompiledProgram:
    """Immutable flat decode table of a :class:`Program`.

    Built once per program at kernel-load time, then indexed by
    ``pc_idx`` on every issue instead of materialising an
    :class:`Instruction` per commit: parallel tuples of plain ints and
    floats, so the hot issue paths dispatch on an int compare and chase
    no dataclass attributes. ``batchable[pc]`` marks the kinds the
    event engine's single-wave straight-line batcher may retire
    (VALU/SALU/BRANCH).

    Tables are shared by reference across ``clone()`` and
    ``snapshot()``/``restore()`` (zero bytes per oracle fork) and
    compare equal by their source program, so separately-built engines
    with equal programs still agree on captured state.
    """

    __slots__ = (
        "source",
        "kinds",
        "cycles",
        "l1_hit_rates",
        "l2_hit_rates",
        "pattern_jitters",
        "wait_targets",
        "branch_targets",
        "trip_counts",
        "batchable",
    )

    def __init__(self, source: Program) -> None:
        instrs = source.instructions
        self.source = source
        self.kinds: Tuple[int, ...] = tuple(int(i.kind) for i in instrs)
        self.cycles: Tuple[int, ...] = tuple(i.cycles for i in instrs)
        self.l1_hit_rates: Tuple[float, ...] = tuple(i.l1_hit_rate for i in instrs)
        self.l2_hit_rates: Tuple[float, ...] = tuple(i.l2_hit_rate for i in instrs)
        self.pattern_jitters: Tuple[float, ...] = tuple(i.pattern_jitter for i in instrs)
        self.wait_targets: Tuple[int, ...] = tuple(i.wait_target for i in instrs)
        self.branch_targets: Tuple[int, ...] = tuple(i.branch_target for i in instrs)
        self.trip_counts: Tuple[int, ...] = tuple(i.trip_count for i in instrs)
        batch_kinds = (
            int(InstructionKind.VALU),
            int(InstructionKind.SALU),
            int(InstructionKind.BRANCH),
        )
        self.batchable: Tuple[bool, ...] = tuple(k in batch_kinds for k in self.kinds)

    @property
    def name(self) -> str:
        return self.source.name

    def __len__(self) -> int:
        return len(self.kinds)

    def canonical_key(self):
        """Cache-key identity: the table is a pure function of its source
        program, so it canonicalises as that program (see
        :func:`repro.runtime.cache.canonicalize`)."""
        return self.source

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CompiledProgram):
            return NotImplemented
        return self.source == other.source

    def __hash__(self) -> int:
        return hash(self.source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledProgram({self.source.name!r}, {len(self)} instrs)"


class ProgramBuilder:
    """Convenience builder for programs with loops.

    Example::

        b = ProgramBuilder()
        top = b.label()
        b.emit(valu(), valu(), load(0.5, 0.5), waitcnt(0))
        b.loop_back(top, trips=100)
        program = b.build("my-kernel")
    """

    def __init__(self) -> None:
        self._instrs: List[Instruction] = []

    def label(self) -> int:
        """Current instruction index, usable as a branch target."""
        return len(self._instrs)

    def emit(self, *instrs: Instruction) -> "ProgramBuilder":
        self._instrs.extend(instrs)
        return self

    def loop_back(self, target: int, trips: int) -> "ProgramBuilder":
        self._instrs.append(branch(target, trips))
        return self

    def build(self, name: str = "kernel") -> Program:
        self._instrs.append(endpgm())
        program = Program(tuple(self._instrs), name=name)
        self._instrs = []
        return program


__all__ = [
    "InstructionKind",
    "Instruction",
    "Program",
    "CompiledProgram",
    "ProgramBuilder",
    "valu",
    "salu",
    "load",
    "store",
    "waitcnt",
    "barrier",
    "branch",
    "endpgm",
]
