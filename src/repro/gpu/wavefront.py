"""In-order wavefront execution state.

A wavefront executes its program strictly in order. Loads and stores are
tracked with an outstanding-operation counter (the analogue of GCN's
``vmcnt``); the wavefront only blocks when it reaches a ``WAITCNT`` whose
target is below the current outstanding count — time spent blocked there
is *memory stall time*, the quantity the STALL estimation model measures
(the paper measures time blocked at ``s_waitcnt``, Section 4.4).

Per-epoch counters are plain slots on the wavefront, reset at every
epoch boundary by the owning CU (:meth:`Wavefront.begin_epoch`). They are
exactly the raw inputs of the estimation models evaluated in the paper:

* ``stall_ns`` - STALL model input,
* ``store_stall_ns`` / ``barrier_stall_ns`` - CRISP model inputs,
* ``leading_load_ns`` - LEAD model input,
* ``critical_mem_ns`` - CRIT model input,
* ``committed`` and ``epoch_start_pc_idx`` - PCSTALL inputs.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.gpu.isa import CompiledProgram, Instruction, Program

#: Golden-ratio fraction used by the deterministic low-discrepancy hit
#: sequence (see `Wavefront.draw_hit`).
_PHI = 0.6180339887498949


class Wavefront:
    """Execution state of one wavefront resident on a CU.

    Attributes (state that must survive snapshot/rollback):
        pc_idx: index of the next instruction to execute.
        loop_counters: remaining trip counts per BRANCH instruction index.
        ready_at: earliest time (ns) the wavefront can issue again.
        outstanding: in-flight memory operations (loads + stores).
        outstanding_stores: in-flight stores (CRISP's store-stall input).
        blocked_wait_target: not None while blocked at a WAITCNT.
        blocked_barrier: True while waiting at a workgroup barrier.
        blocked_since: time the current block began (stall accounting).
        age: global dispatch sequence number; lower = older = scheduled
            first ("oldest-first" policy, Section 4.3).

    The per-epoch counters the module docstring lists are slots too (the
    event engine bumps them on every commit); :meth:`begin_epoch` resets
    them.
    """

    __slots__ = (
        "wf_id",
        "workgroup_id",
        "wave_in_group",
        "code",
        "pc_idx",
        "loop_counters",
        "ready_at",
        "outstanding",
        "outstanding_stores",
        "blocked_wait_target",
        "blocked_barrier",
        "blocked_since",
        "age",
        "done",
        "pc_visits",
        "last_mem_completion",
        "committed",
        "stall_ns",
        "store_stall_ns",
        "barrier_stall_ns",
        "leading_load_ns",
        "critical_mem_ns",
        "epoch_start_pc_idx",
    )

    def __init__(
        self,
        wf_id: int,
        workgroup_id: int,
        wave_in_group: int,
        program: Union[Program, CompiledProgram],
        age: int,
        start_time: float = 0.0,
    ) -> None:
        self.wf_id = wf_id
        self.workgroup_id = workgroup_id
        self.wave_in_group = wave_in_group
        # The wave executes the compiled decode table; a raw Program is
        # compiled on the spot (cached on the program, so waves of the
        # same kernel share one table by reference).
        self.code = program.compiled if isinstance(program, Program) else program
        self.pc_idx = 0
        self.loop_counters: Dict[int, int] = {}
        self.ready_at = start_time
        self.outstanding = 0
        self.outstanding_stores = 0
        self.blocked_wait_target: Optional[int] = None
        self.blocked_barrier = False
        self.blocked_since = 0.0
        self.age = age
        self.done = False
        self.pc_visits: Dict[int, int] = {}
        self.last_mem_completion = start_time
        self.begin_epoch()

    def begin_epoch(self) -> None:
        """Zero the per-epoch counters; the epoch starts at ``pc_idx``."""
        self.committed = 0
        self.stall_ns = 0.0
        self.store_stall_ns = 0.0
        self.barrier_stall_ns = 0.0
        self.leading_load_ns = 0.0
        self.critical_mem_ns = 0.0
        self.epoch_start_pc_idx = self.pc_idx

    # ------------------------------------------------------------------
    # Introspection helpers

    @property
    def blocked(self) -> bool:
        return self.blocked_wait_target is not None or self.blocked_barrier

    def is_ready(self, now: float) -> bool:
        """True when the wavefront can issue its next instruction."""
        return not self.done and not self.blocked and self.ready_at <= now

    def current_instruction(self) -> Instruction:
        return self.code.source.instructions[self.pc_idx]

    # ------------------------------------------------------------------
    # Deterministic "randomness"

    def draw_hits(
        self, pc_idx: int, l1_rate: float, l2_rate: float, jitter: float
    ) -> "tuple[bool, bool, int]":
        """Deterministic low-discrepancy (L1 hit, L2 hit) draw.

        Each static memory instruction has a *fixed* hit/miss outcome per
        wavefront (a regular access pattern); with probability ``jitter``
        a visit instead uses an iteration-dependent draw (data-dependent
        access, e.g. random table lookups). Everything is a pure function
        of (PC, wavefront, visit count), so the memory behaviour of an
        epoch is essentially determined by its starting PC - the
        repetitive-kernel property the PC-indexed predictor exploits
        (Figures 9/10) - and forked (oracle) executions replay
        bit-identically. Realised rates converge to the configured ones
        across the static instructions of a program.
        """
        count = self.pc_visits.get(pc_idx, 0)
        self.pc_visits[pc_idx] = count + 1
        salt = ((self.workgroup_id * 7 + self.wave_in_group) * 0.23606797749979) % 1.0
        static_base = (pc_idx * 0.3819660112501051 + salt) % 1.0
        dynamic = ((count * _PHI + pc_idx * 0.7548776662466927) % 1.0) < jitter
        if dynamic:
            base = (static_base + count * _PHI) % 1.0
        else:
            base = static_base
        l1 = base < l1_rate
        l2 = ((base + 0.5) % 1.0) < l2_rate
        return l1, l2, count

    # ------------------------------------------------------------------
    # Control flow

    def advance_pc(self) -> None:
        self.pc_idx += 1

    def take_branch(self, idx: int, instr: Instruction) -> None:
        """Execute a BRANCH at instruction index ``idx``."""
        remaining = self.loop_counters.get(idx)
        if remaining is None:
            remaining = instr.trip_count
        if remaining > 0:
            self.loop_counters[idx] = remaining - 1
            self.pc_idx = instr.branch_target
        else:
            # Loop exhausted: reset so a future re-entry iterates again.
            self.loop_counters.pop(idx, None)
            self.pc_idx = idx + 1

    # ------------------------------------------------------------------
    # Blocking / unblocking

    def block_wait(self, target: int, now: float) -> None:
        self.blocked_wait_target = target
        self.blocked_since = now

    def block_barrier(self, now: float) -> None:
        self.blocked_barrier = True
        self.blocked_since = now

    def waitcnt_satisfied(self) -> bool:
        return (
            self.blocked_wait_target is not None
            and self.outstanding <= self.blocked_wait_target
        )

    def unblock_wait(self, now: float, epoch_start: float) -> None:
        """Release a WAITCNT block, charging stall time within the epoch."""
        start = max(self.blocked_since, epoch_start)
        if now > start:
            stalled = now - start
            self.stall_ns += stalled
            if self.outstanding_stores > 0:
                self.store_stall_ns += stalled
        self.blocked_wait_target = None
        self.blocked_since = now
        if self.ready_at < now:
            self.ready_at = now
        # The WAITCNT itself retires now.
        self.advance_pc()

    def unblock_barrier(self, now: float, epoch_start: float) -> None:
        start = max(self.blocked_since, epoch_start)
        if now > start:
            self.barrier_stall_ns += now - start
        self.blocked_barrier = False
        self.blocked_since = now
        if self.ready_at < now:
            self.ready_at = now
        self.advance_pc()

    def settle_stall(self, now: float, epoch_start: float) -> None:
        """Charge in-progress stall time at an epoch boundary."""
        if not self.blocked:
            return
        start = max(self.blocked_since, epoch_start)
        if now <= start:
            return
        stalled = now - start
        if self.blocked_wait_target is not None:
            self.stall_ns += stalled
            if self.outstanding_stores > 0:
                self.store_stall_ns += stalled
        else:
            self.barrier_stall_ns += stalled
        self.blocked_since = now

    # ------------------------------------------------------------------
    # Memory bookkeeping

    def note_mem_issue(self, now: float, completion: float, is_store: bool) -> None:
        """Record accounting for a memory operation issued now."""
        if self.outstanding == 0:
            # A leading load/store: no other memory op in flight.
            self.leading_load_ns += completion - now
        # Critical-path approximation: the non-overlapped part of this
        # access extends the wavefront's memory critical path.
        overlap_from = max(now, self.last_mem_completion)
        if completion > overlap_from:
            self.critical_mem_ns += completion - overlap_from
        if completion > self.last_mem_completion:
            self.last_mem_completion = completion
        self.outstanding += 1
        if is_store:
            self.outstanding_stores += 1

    def note_mem_complete(self, is_store: bool) -> None:
        self.outstanding -= 1
        if is_store:
            self.outstanding_stores -= 1
        if self.outstanding < 0:
            raise RuntimeError("memory completion underflow")

    # ------------------------------------------------------------------
    # Snapshot support

    def clone(self) -> "Wavefront":
        out = Wavefront.__new__(Wavefront)
        out.wf_id = self.wf_id
        out.workgroup_id = self.workgroup_id
        out.wave_in_group = self.wave_in_group
        out.code = self.code  # immutable decode table, shared
        out.pc_idx = self.pc_idx
        out.loop_counters = dict(self.loop_counters)
        out.ready_at = self.ready_at
        out.outstanding = self.outstanding
        out.outstanding_stores = self.outstanding_stores
        out.blocked_wait_target = self.blocked_wait_target
        out.blocked_barrier = self.blocked_barrier
        out.blocked_since = self.blocked_since
        out.age = self.age
        out.done = self.done
        out.pc_visits = dict(self.pc_visits)
        out.last_mem_completion = self.last_mem_completion
        out.committed = self.committed
        out.stall_ns = self.stall_ns
        out.store_stall_ns = self.store_stall_ns
        out.barrier_stall_ns = self.barrier_stall_ns
        out.leading_load_ns = self.leading_load_ns
        out.critical_mem_ns = self.critical_mem_ns
        out.epoch_start_pc_idx = self.epoch_start_pc_idx
        return out

    def capture(self) -> tuple:
        """Flat-tuple snapshot of all mutable state.

        Unlike :meth:`clone`, no ``Wavefront`` object is allocated: the
        snapshot is a plain tuple of scalars plus shared references to
        the immutable :class:`~repro.gpu.isa.Program`. The oracle uses
        this to fork an epoch many times from one capture (see
        ``Gpu.snapshot``). Restoring into an existing wavefront via
        :meth:`restore_capture` allocates only the two small dicts.
        """
        return (
            self.wf_id,
            self.workgroup_id,
            self.wave_in_group,
            self.code,  # immutable decode table, shared
            self.age,
            self.pc_idx,
            tuple(self.loop_counters.items()),
            self.ready_at,
            self.outstanding,
            self.outstanding_stores,
            self.blocked_wait_target,
            self.blocked_barrier,
            self.blocked_since,
            self.done,
            tuple(self.pc_visits.items()),
            self.last_mem_completion,
            self.committed,
            self.stall_ns,
            self.store_stall_ns,
            self.barrier_stall_ns,
            self.leading_load_ns,
            self.critical_mem_ns,
            self.epoch_start_pc_idx,
        )

    def restore_capture(self, cap: tuple) -> None:
        """Overwrite mutable state from a :meth:`capture` tuple in place.

        Identity fields (ids, program, age) are assumed to match; callers
        reuse a wavefront only for the same ``wf_id``/``program``.
        """
        (
            _,
            _,
            _,
            _,
            _,
            self.pc_idx,
            loops,
            self.ready_at,
            self.outstanding,
            self.outstanding_stores,
            self.blocked_wait_target,
            self.blocked_barrier,
            self.blocked_since,
            self.done,
            visits,
            self.last_mem_completion,
            self.committed,
            self.stall_ns,
            self.store_stall_ns,
            self.barrier_stall_ns,
            self.leading_load_ns,
            self.critical_mem_ns,
            self.epoch_start_pc_idx,
        ) = cap
        self.loop_counters = dict(loops)
        self.pc_visits = dict(visits)

    @classmethod
    def from_capture(cls, cap: tuple) -> "Wavefront":
        """Materialise a fresh wavefront from a :meth:`capture` tuple."""
        out = cls.__new__(cls)
        out.wf_id, out.workgroup_id, out.wave_in_group, code, out.age = cap[:5]
        # Old captures carried the raw Program at index 3; normalise.
        out.code = code.compiled if isinstance(code, Program) else code
        out.restore_capture(cap)
        return out

    def capture_nbytes(self) -> int:
        """Rough payload size of :meth:`capture` (8 bytes per scalar)."""
        return 8 * (23 + 2 * (len(self.loop_counters) + len(self.pc_visits)))


__all__ = ["Wavefront"]
