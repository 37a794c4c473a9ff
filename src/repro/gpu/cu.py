"""Compute Unit: oldest-first wavefront scheduling, event-driven timing.

Each CU holds up to ``waves_per_cu`` resident wavefronts and issues up to
``issue_width`` instructions per cycle from the oldest ready wavefronts
("oldest-first" scheduling, the policy the paper attributes the
inter-wavefront contention profile to, Section 4.3 / Figure 11a).

The CU runs event-driven: when at least one wavefront is ready it advances
cycle by cycle; when everything is stalled on memory it jumps straight to
the next completion. Compute cycles cost ``1/f`` ns (frequency-dependent);
L1 hits are served inside the CU's V/f domain (cycles); L1 misses go to
the shared :class:`~repro.gpu.memory.MemorySubsystem` (fixed-frequency
nanoseconds).

Two scheduler implementations share all issue/retire/memory semantics
(selected by ``GpuConfig.engine``):

* ``"event"`` (default): maintained event state. Runnable wavefronts live
  in exactly one of two heaps - a ready pool ordered by age and a wakeup
  heap ordered by ``ready_at`` - so each cycle touches only the waves
  that can actually issue, and ``_next_wakeup`` is a heap peek instead of
  a scan over every resident wave. When a single wavefront is runnable
  and no wakeup is pending, consecutive compute/branch instructions are
  batched through :meth:`ComputeUnit._run_batch` as one timing event
  stream. Both paths replay the reference loop's float operations in the
  same order, so results are bit-identical.
* ``"reference"``: the original per-cycle rescan loop, kept verbatim as
  the golden baseline for the equivalence tests (including its
  scheduling quirk: retiring a wave mid-scan skips the wave that shifts
  into its list position for the remainder of that cycle's scan - the
  event engine reproduces this with an explicit skip mark).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, List, Optional, Sequence, Tuple

from repro.config import GpuConfig
from repro.gpu.isa import CompiledProgram, InstructionKind, Program
from repro.gpu.memory import MemorySubsystem
from repro.gpu.wavefront import _PHI, Wavefront

#: A pending workgroup: tuple of (workgroup_id, wave_in_group, program).
#: The program may be a raw :class:`Program` or its compiled decode table;
#: dispatch normalises either into a :class:`CompiledProgram`-backed wave.
PendingWave = Tuple[int, int, "Program | CompiledProgram"]

# Interned enum members for the legacy (reference-engine) decode path:
# module-global loads beat repeated EnumMeta attribute lookups.
_VALU = InstructionKind.VALU
_SALU = InstructionKind.SALU
_LOAD = InstructionKind.LOAD
_STORE = InstructionKind.STORE
_WAITCNT = InstructionKind.WAITCNT
_BRANCH = InstructionKind.BRANCH
_BARRIER = InstructionKind.BARRIER
_ENDPGM = InstructionKind.ENDPGM

# Plain-int twins for the compiled decode path: ``CompiledProgram.kinds``
# stores ints, so dispatch is an int compare with no enum machinery.
_K_VALU = int(_VALU)
_K_SALU = int(_SALU)
_K_LOAD = int(_LOAD)
_K_STORE = int(_STORE)
_K_WAITCNT = int(_WAITCNT)
_K_BRANCH = int(_BRANCH)
_K_BARRIER = int(_BARRIER)
_K_ENDPGM = int(_ENDPGM)


@dataclass(slots=True)
class CuEpochStats:
    """CU-level per-epoch aggregates (inputs to CU-level models & power).

    Slotted: every committed instruction bumps these counters.
    """

    committed: int = 0
    committed_compute: int = 0
    committed_memory: int = 0
    issued: int = 0
    #: Time (ns) during which at least one wavefront was executing or
    #: ready to execute (not blocked on memory/barriers). The interval
    #: models use this as the CU's core time: the remainder of the epoch
    #: is asynchronous (memory) time.
    core_busy_ns: float = 0.0
    loads: int = 0
    stores: int = 0

    def reset(self) -> None:
        self.committed = 0
        self.committed_compute = 0
        self.committed_memory = 0
        self.issued = 0
        self.core_busy_ns = 0.0
        self.loads = 0
        self.stores = 0

    def clone(self) -> "CuEpochStats":
        # Positional, in field order (slotted dataclasses have no __dict__).
        return CuEpochStats(
            self.committed,
            self.committed_compute,
            self.committed_memory,
            self.issued,
            self.core_busy_ns,
            self.loads,
            self.stores,
        )

    def stall_breakdown(self, duration_ns: float) -> Dict[str, float]:
        """Split an epoch into core-busy vs stalled (memory/idle) time.

        ``core_busy_ns`` already excludes time blocked on memory and
        barriers, so the remainder of the epoch window is the CU's
        asynchronous stall time. Clamped so float drift at epoch edges
        can never produce a negative stall.
        """
        busy = min(self.core_busy_ns, duration_ns)
        return {"busy_ns": busy, "stall_ns": max(0.0, duration_ns - busy)}

    def capture(self) -> tuple:
        return (
            self.committed,
            self.committed_compute,
            self.committed_memory,
            self.issued,
            self.core_busy_ns,
            self.loads,
            self.stores,
        )

    def restore_capture(self, cap: tuple) -> None:
        (
            self.committed,
            self.committed_compute,
            self.committed_memory,
            self.issued,
            self.core_busy_ns,
            self.loads,
            self.stores,
        ) = cap


class ComputeUnit:
    """One compute unit of the GPU."""

    def __init__(self, cu_id: int, config: GpuConfig) -> None:
        self.cu_id = cu_id
        self.config = config
        self.frequency_ghz = 1.7
        self.now = 0.0
        self.epoch_start = 0.0
        #: Resident wavefronts in age order (oldest first).
        self.waves: List[Wavefront] = []
        #: Pending workgroups waiting for free slots; each entry is the
        #: full list of that workgroup's waves (dispatched atomically so
        #: barriers cannot deadlock).
        self.pending_workgroups: Deque[Tuple[PendingWave, ...]] = deque()
        #: Min-heap of (completion_ns, seq, wf_id, is_store).
        self.completions: List[Tuple[float, int, int, bool]] = []
        self._completion_seq = 0
        #: wavefronts by id for completion delivery.
        self.wave_by_id: Dict[int, Wavefront] = {}
        #: Barrier arrival counts per workgroup id.
        self.barrier_arrived: Dict[int, int] = {}
        #: Alive (not ENDPGM'd) waves per workgroup id.
        self.wg_alive: Dict[int, int] = {}
        self._next_age = 0
        self._next_wf_id = cu_id * 1_000_000
        self.stats = CuEpochStats()
        #: Time the most recent wavefront retired (completion tracking).
        self.last_retire_time = 0.0
        #: Position of each resident wave in ``waves`` (O(1) retire).
        self._wave_pos: Dict[int, int] = {}
        # --- event-engine state -------------------------------------
        # Invariant between scheduler steps: every runnable (not done,
        # not blocked) resident wave sits in exactly one of the two
        # heaps; ages (and (ready_at, age) pairs) are unique, so heap
        # pop order never depends on internal array layout.
        self._event_engine = config.engine != "reference"
        #: Ready pool: (age, wf) for runnable waves with ready_at due.
        self._ready: List[Tuple[int, Wavefront]] = []
        #: Wakeup heap: (ready_at, age, wf) for runnable waves not yet due.
        self._wakeups: List[Tuple[float, int, Wavefront]] = []
        #: Count of runnable resident waves (maintained in both engines).
        self._runnable = 0
        #: Current scheduler time, used by ``_wake`` to route pushes.
        self._cycle_now = 0.0
        # --- hot-path counters (observational only; never read by the
        # timing model - see repro.runtime.profiling) -----------------
        self.ctr_cycles = 0
        self.ctr_waves_scanned = 0
        self.ctr_batched = 0
        self.ctr_completions = 0

    # ------------------------------------------------------------------
    # Dispatch

    def enqueue_workgroup(self, waves: Sequence[PendingWave]) -> None:
        self.pending_workgroups.append(tuple(waves))

    def try_dispatch(self, now: float) -> None:
        """Dispatch whole pending workgroups while slots allow."""
        free = self.config.waves_per_cu - len(self.waves)
        while self.pending_workgroups and len(self.pending_workgroups[0]) <= free:
            group = self.pending_workgroups.popleft()
            for wg_id, wave_in_group, program in group:
                wf = Wavefront(
                    wf_id=self._next_wf_id,
                    workgroup_id=wg_id,
                    wave_in_group=wave_in_group,
                    program=program,
                    age=self._next_age,
                    start_time=now,
                )
                self._next_wf_id += 1
                self._next_age += 1
                self._wave_pos[wf.wf_id] = len(self.waves)
                self.waves.append(wf)
                self.wave_by_id[wf.wf_id] = wf
                self.wg_alive[wg_id] = self.wg_alive.get(wg_id, 0) + 1
                self._wake(wf)
            free = self.config.waves_per_cu - len(self.waves)

    @property
    def idle(self) -> bool:
        """No resident and no pending work."""
        return not self.waves and not self.pending_workgroups

    # ------------------------------------------------------------------
    # Epoch control

    def begin_epoch(self, epoch_start: float) -> None:
        self.epoch_start = epoch_start
        self.stats.reset()
        for wf in self.waves:
            wf.begin_epoch()

    def settle_epoch(self, epoch_end: float) -> None:
        """Charge in-progress stalls so epoch stats are complete."""
        for wf in self.waves:
            wf.settle_stall(epoch_end, self.epoch_start)

    # ------------------------------------------------------------------
    # Event bookkeeping

    def _wake(self, wf: Wavefront) -> None:
        """A resident wave became runnable (dispatched or unblocked)."""
        self._runnable += 1
        if self._event_engine:
            if wf.ready_at <= self._cycle_now:
                heapq.heappush(self._ready, (wf.age, wf))
            else:
                heapq.heappush(self._wakeups, (wf.ready_at, wf.age, wf))

    def _rebuild_event_state(self) -> None:
        """Reclassify runnable waves into the two heaps (clone/restore).

        Valid because heap keys are unique: the next refill merges the
        pools exactly as the original schedule would have.
        """
        ready: List[Tuple[int, Wavefront]] = []
        wakeups: List[Tuple[float, int, Wavefront]] = []
        runnable = 0
        now = self._cycle_now
        event = self._event_engine
        for wf in self.waves:
            if wf.done or wf.blocked:
                continue
            runnable += 1
            if event:
                if wf.ready_at <= now:
                    ready.append((wf.age, wf))
                else:
                    wakeups.append((wf.ready_at, wf.age, wf))
        heapq.heapify(ready)
        heapq.heapify(wakeups)
        self._ready = ready
        self._wakeups = wakeups
        self._runnable = runnable

    # ------------------------------------------------------------------
    # Execution

    def run_until(self, t_end: float, mem: MemorySubsystem) -> None:
        """Advance this CU's local clock to ``t_end``: the one-shot form
        of :meth:`steps` (one quantum, then flush)."""
        stepper = self.steps(mem)
        next(stepper)
        stepper.send(t_end)
        stepper.close()

    def steps(self, mem: MemorySubsystem) -> Generator[None, float, None]:
        """Resumable scheduler: advance to each quantum end sent in.

        ``Gpu.run_epoch`` creates one stepper per CU per epoch, primes it
        with ``next`` and sends it every sync-quantum boundary, so the
        loop state below is hoisted once per epoch, not once per
        quantum. Frequency, epoch start and every container the loop
        holds are fixed for that long: nothing outside the stepper
        touches the CU until the epoch ends.

        The event engine's scan loop delivers memory completions and
        issues every instruction kind itself, straight from the compiled
        decode arrays, with the wavefront's memory bookkeeping
        (:meth:`Wavefront.draw_hits`, ``note_mem_issue``,
        ``note_mem_complete``, ``unblock_wait``) and a completion's
        ``_wake`` written out inline: the semantics and float-operation
        order are those of :meth:`_issue` and
        :meth:`_deliver_completions`, which the reference engine keeps,
        so the engine-equivalence suite doubles as a check of the
        inlined copies. ``mem.request`` stays a call, one per L1 miss.

        ``now``, ``core_busy_ns``, the completion sequence and the
        integer counters (cycles, scans, completions, CU commit counts)
        live in locals. ``core_busy_ns`` is flushed before and reloaded
        after :meth:`_run_batch`, which accumulates into the field;
        everything is flushed when the stepper closes. ``_cycle_now`` is
        set just before each step that can call :meth:`_wake` (a
        barrier release, an ENDPGM's retire and dispatch) and at the end
        of every quantum the loop runs.

        Known fidelity bug, kept for bit-identity with the reference
        engine: a quantum that starts past its end moves the clock back
        to that end. So a V/f transition longer than the sync quantum
        freezes the CU for one quantum, not for its full latency.
        """
        if not self._event_engine:
            t_end = yield
            while True:
                self._run_until_reference(t_end, mem)
                t_end = yield
        cycle = 1.0 / self.frequency_ghz
        l1_hit_ns = self.config.memory.l1_hit_cycles * cycle
        issue_width = self.config.issue_width
        request = mem.request
        ready = self._ready
        wakeups = self._wakeups
        completions = self.completions
        waves = self.waves
        wave_by_id = self.wave_by_id
        stats = self.stats
        epoch_start = self.epoch_start
        heappush = heapq.heappush
        heappop = heapq.heappop
        n_cycles = n_scanned = n_completions = n_issued = 0
        n_compute = n_loads = n_stores = 0
        seq = self._completion_seq
        core_busy = stats.core_busy_ns
        now = self.now
        try:
            while True:
                t_end = yield
                if now >= t_end:
                    now = t_end
                    continue
                while now < t_end:
                    n_cycles += 1
                    while completions and completions[0][0] <= now:
                        completion, _seq, wf_id, is_store = heappop(completions)
                        wf = wave_by_id.get(wf_id)
                        if wf is None:
                            continue
                        n_completions += 1
                        outstanding = wf.outstanding - 1
                        wf.outstanding = outstanding
                        if is_store:
                            wf.outstanding_stores -= 1
                        if outstanding < 0:
                            raise RuntimeError("memory completion underflow")
                        target = wf.blocked_wait_target
                        if target is not None and outstanding <= target:
                            # unblock_wait(completion, epoch_start), then _wake.
                            start = wf.blocked_since
                            if epoch_start > start:
                                start = epoch_start
                            if completion > start:
                                stalled = completion - start
                                wf.stall_ns += stalled
                                if wf.outstanding_stores > 0:
                                    wf.store_stall_ns += stalled
                            wf.blocked_wait_target = None
                            wf.blocked_since = completion
                            if wf.ready_at < completion:
                                wf.ready_at = completion
                            wf.pc_idx += 1
                            self._runnable += 1
                            if wf.ready_at <= now:
                                heappush(ready, (wf.age, wf))
                            else:
                                heappush(wakeups, (wf.ready_at, wf.age, wf))
                    while wakeups and wakeups[0][0] <= now:
                        _, age, wf = heappop(wakeups)
                        heappush(ready, (age, wf))
                    if ready:
                        if len(ready) == 1 and not wakeups:
                            wf = ready[0][1]
                            if wf.code.batchable[wf.pc_idx]:
                                heappop(ready)
                                stats.core_busy_ns = core_busy
                                now = self._run_batch(wf, now, t_end, cycle)
                                core_busy = stats.core_busy_ns
                                # Always re-file via the wakeup heap: ``now``
                                # may have overshot ``t_end``, in which case
                                # the wave is *not* ready at the start of the
                                # next quantum. The refill at the top of the
                                # loop promotes it the moment ``ready_at``
                                # actually passes.
                                heappush(wakeups, (wf.ready_at, wf.age, wf))
                                continue
                        issued = 0
                        cursor = -1
                        deferred: Optional[List[Tuple[int, Wavefront]]] = None
                        # Waves not to examine again this scan (see ``_retire_wave``).
                        skip: Optional[List[Wavefront]] = None
                        while ready and issued < issue_width:
                            age, wf = heappop(ready)
                            n_scanned += 1
                            if age <= cursor:
                                # Became ready behind the scan position: next cycle.
                                if deferred is None:
                                    deferred = []
                                deferred.append((age, wf))
                                continue
                            cursor = age
                            if skip is not None and any(s is wf for s in skip):
                                if deferred is None:
                                    deferred = []
                                deferred.append((age, wf))
                                continue
                            issued += 1
                            code = wf.code
                            pc = wf.pc_idx
                            kind = code.kinds[pc]
                            if kind == _K_VALU or kind == _K_SALU:
                                wf.ready_at = now + code.cycles[pc] * cycle
                                wf.committed += 1
                                n_compute += 1
                                wf.pc_idx = pc + 1
                            elif kind == _K_LOAD or kind == _K_STORE:
                                is_store = kind == _K_STORE
                                # draw_hits: the L2 draw is only read on an L1 miss.
                                visits = wf.pc_visits
                                count = visits.get(pc, 0)
                                visits[pc] = count + 1
                                wg = wf.workgroup_id
                                wave_in_group = wf.wave_in_group
                                salt = ((wg * 7 + wave_in_group) * 0.23606797749979) % 1.0
                                base = (pc * 0.3819660112501051 + salt) % 1.0
                                dynamic = (count * _PHI + pc * 0.7548776662466927) % 1.0
                                if dynamic < code.pattern_jitters[pc]:
                                    base = (base + count * _PHI) % 1.0
                                if base < code.l1_hit_rates[pc]:
                                    completion = now + l1_hit_ns
                                else:
                                    # Address-derived bank key: a pure function of which
                                    # access this is, independent of global arrival order.
                                    completion = request(
                                        now,
                                        ((base + 0.5) % 1.0) < code.l2_hit_rates[pc],
                                        pc * 131 + count * 7 + wg * 13 + wave_in_group,
                                    )
                                # note_mem_issue(now, completion, is_store)
                                outstanding = wf.outstanding
                                if outstanding == 0:
                                    # A leading load/store: no other memory op in flight.
                                    wf.leading_load_ns += completion - now
                                last = wf.last_mem_completion
                                overlap_from = last if last > now else now
                                if completion > overlap_from:
                                    wf.critical_mem_ns += completion - overlap_from
                                if completion > last:
                                    wf.last_mem_completion = completion
                                wf.outstanding = outstanding + 1
                                if is_store:
                                    wf.outstanding_stores += 1
                                    n_stores += 1
                                else:
                                    n_loads += 1
                                seq += 1
                                heappush(completions, (completion, seq, wf.wf_id, is_store))
                                wf.ready_at = now + code.cycles[pc] * cycle
                                wf.committed += 1
                                wf.pc_idx = pc + 1
                            elif kind == _K_WAITCNT:
                                target = code.wait_targets[pc]
                                if wf.outstanding > target:
                                    wf.block_wait(target, now)
                                    self._runnable -= 1
                                    continue
                                wf.ready_at = now + cycle
                                wf.pc_idx = pc + 1
                            elif kind == _K_BRANCH:
                                counters = wf.loop_counters
                                remaining = counters.get(pc)
                                if remaining is None:
                                    remaining = code.trip_counts[pc]
                                if remaining > 0:
                                    counters[pc] = remaining - 1
                                    wf.pc_idx = code.branch_targets[pc]
                                else:
                                    # Loop exhausted: reset so a future re-entry iterates.
                                    counters.pop(pc, None)
                                    wf.pc_idx = pc + 1
                                wf.ready_at = now + cycle
                                wf.committed += 1
                                n_compute += 1
                            elif kind == _K_BARRIER:
                                wg = wf.workgroup_id
                                wf.block_barrier(now)
                                self._runnable -= 1
                                arrived = self.barrier_arrived.get(wg, 0) + 1
                                self.barrier_arrived[wg] = arrived
                                if arrived >= self.wg_alive.get(wg, 0):
                                    self._cycle_now = now
                                    self._release_barrier(wg, now + cycle)
                                continue
                            elif kind == _K_ENDPGM:
                                self._cycle_now = now
                                idx = self._retire_wave(wf, now)
                                if idx < len(waves):
                                    if skip is None:
                                        skip = []
                                    skip.append(waves[idx])
                                continue
                            else:  # pragma: no cover - enum is closed
                                raise RuntimeError(f"unhandled instruction kind {kind}")
                            heappush(wakeups, (wf.ready_at, age, wf))
                        if deferred is not None:
                            for entry in deferred:
                                heappush(ready, entry)
                        if issued:
                            n_issued += issued
                            core_busy += cycle
                            now += cycle
                            continue
                    # Nothing issued: jump to the next event.
                    nxt = t_end
                    if completions and completions[0][0] < nxt:
                        nxt = completions[0][0]
                    if wakeups and wakeups[0][0] < nxt:
                        nxt = wakeups[0][0]
                    if nxt <= now:  # pragma: no cover - mirrors the reference loop
                        now += cycle
                        core_busy += cycle
                    else:
                        if self._runnable:
                            # Waves are mid-pipeline (busy), not memory-blocked:
                            # this gap is core time, not asynchronous time.
                            core_busy += nxt - now
                        now = nxt
                now = t_end
                self._cycle_now = t_end
        finally:
            self.now = now
            self._completion_seq = seq
            stats.core_busy_ns = core_busy
            stats.committed += n_compute + n_loads + n_stores
            stats.committed_compute += n_compute
            stats.committed_memory += n_loads + n_stores
            stats.loads += n_loads
            stats.stores += n_stores
            stats.issued += n_issued
            self.ctr_cycles += n_cycles
            self.ctr_waves_scanned += n_scanned
            self.ctr_completions += n_completions

    def _run_batch(self, wf: Wavefront, now: float, t_end: float, cycle: float) -> float:
        """Issue consecutive compute/branch instructions of the only
        runnable wavefront as one timing event stream.

        Replays the per-cycle loop's float operations in the same order
        (issue, ``core_busy_ns += cycle``, ``now += cycle``, then the gap
        arithmetic), so the result is bit-identical; only the readiness
        rescans are skipped. Stops at ``t_end``, at the next memory
        completion, on a multi-cycle gap that something else bounds, or
        at the first non-batchable instruction.

        The loop works entirely on the compiled decode arrays and local
        accumulators: ``core_busy`` is seeded from the current stat field
        and flushed on exit, so it replays exactly the float additions
        the per-instruction path performs on that field, and the integer
        commit/issue counters (one of each per batchable instruction, for
        every batchable kind) collapse into ``batched``.
        The completions heap cannot change inside a batch (no memory ops
        issue, no completions deliver), so its head is hoisted too.
        """
        stats = self.stats
        code = wf.code
        kinds = code.kinds
        batchable = code.batchable
        cycles = code.cycles
        trip_counts = code.trip_counts
        branch_targets = code.branch_targets
        counters = wf.loop_counters
        completions = self.completions
        next_comp = completions[0][0] if completions else float("inf")
        pc = wf.pc_idx
        ra = wf.ready_at
        core_busy = stats.core_busy_ns
        batched = 0
        while True:
            if not batchable[pc]:
                break
            if kinds[pc] == _K_BRANCH:
                remaining = counters.get(pc)
                if remaining is None:
                    remaining = trip_counts[pc]
                if remaining > 0:
                    counters[pc] = remaining - 1
                    pc = branch_targets[pc]
                else:
                    # Loop exhausted: reset so a future re-entry iterates.
                    counters.pop(pc, None)
                    pc += 1
                ra = now + cycle
            else:  # VALU / SALU
                ra = now + cycles[pc] * cycle
                pc += 1
            core_busy += cycle
            now += cycle
            batched += 1
            if now >= t_end:
                break
            if next_comp <= now:
                break
            if ra > now:
                # Multi-cycle instruction: jump the issue gap exactly as
                # the reference loop's no-issue branch would.
                nxt = t_end
                if next_comp < nxt:
                    nxt = next_comp
                if ra < nxt:
                    nxt = ra
                core_busy += nxt - now
                now = nxt
                if now >= t_end:
                    break
                if next_comp <= now:
                    break
                if nxt != ra:  # pragma: no cover - both bounds checked above
                    break
        wf.pc_idx = pc
        wf.ready_at = ra
        wf.committed += batched
        stats.committed += batched
        stats.committed_compute += batched
        stats.issued += batched
        stats.core_busy_ns = core_busy
        self.ctr_cycles += batched - 1 if batched else 0
        self.ctr_batched += batched
        return now

    def _run_until_reference(self, t_end: float, mem: MemorySubsystem) -> None:
        """The pre-event-engine scheduler loop, kept verbatim (golden
        baseline for the equivalence tests); only counters were added."""
        if self.now >= t_end:
            self.now = t_end
            return
        cycle = 1.0 / self.frequency_ghz
        issue_width = self.config.issue_width
        now = self.now
        while now < t_end:
            self.ctr_cycles += 1
            self._deliver_completions(now)
            issued = 0
            scanned = 0
            for wf in self.waves:
                scanned += 1
                if issued >= issue_width:
                    break
                if wf.is_ready(now):
                    self._issue(wf, now, cycle, mem)
                    issued += 1
            self.ctr_waves_scanned += scanned
            if issued:
                self.stats.issued += issued
                self.stats.core_busy_ns += cycle
                now += cycle
                continue
            nxt = self._next_wakeup(now, t_end)
            self.ctr_waves_scanned += len(self.waves)
            if nxt <= now:
                now += cycle
                self.stats.core_busy_ns += cycle
            else:
                if any(not wf.done and not wf.blocked for wf in self.waves):
                    # Waves are mid-pipeline (busy), not memory-blocked:
                    # this gap is core time, not asynchronous time.
                    self.stats.core_busy_ns += nxt - now
                now = nxt
        self.now = t_end
        self._cycle_now = t_end

    def _next_wakeup(self, now: float, t_end: float) -> float:
        nxt = t_end
        if self.completions and self.completions[0][0] < nxt:
            nxt = self.completions[0][0]
        for wf in self.waves:
            if not wf.done and not wf.blocked and now < wf.ready_at < nxt:
                nxt = wf.ready_at
        return nxt

    def _deliver_completions(self, now: float) -> None:
        heap = self.completions
        while heap and heap[0][0] <= now:
            completion, _seq, wf_id, is_store = heapq.heappop(heap)
            wf = self.wave_by_id.get(wf_id)
            if wf is None:
                continue
            self.ctr_completions += 1
            wf.note_mem_complete(is_store)
            if wf.blocked_wait_target is not None and wf.waitcnt_satisfied():
                wf.unblock_wait(completion, self.epoch_start)
                self._wake(wf)

    def _issue(self, wf: Wavefront, now: float, cycle: float, mem: MemorySubsystem) -> None:
        instr = wf.current_instruction()
        kind = instr.kind
        if kind is _VALU or kind is _SALU:
            cost = instr.cycles * cycle
            wf.ready_at = now + cost
            wf.committed += 1
            self.stats.committed += 1
            self.stats.committed_compute += 1
            wf.advance_pc()
        elif kind is _LOAD or kind is _STORE:
            is_store = kind is _STORE
            l1_hit, l2_hit, visit = wf.draw_hits(
                wf.pc_idx, instr.l1_hit_rate, instr.l2_hit_rate, instr.pattern_jitter
            )
            if l1_hit:
                completion = now + self.config.memory.l1_hit_cycles * cycle
            else:
                # Address-derived bank key: a pure function of which
                # access this is, independent of global arrival order.
                bank_key = wf.pc_idx * 131 + visit * 7 + wf.workgroup_id * 13 + wf.wave_in_group
                completion = mem.request(now, l2_hit, bank_key)
            wf.note_mem_issue(now, completion, is_store)
            self._completion_seq += 1
            heapq.heappush(
                self.completions, (completion, self._completion_seq, wf.wf_id, is_store)
            )
            cost = instr.cycles * cycle
            wf.ready_at = now + cost
            wf.committed += 1
            self.stats.committed += 1
            self.stats.committed_memory += 1
            if is_store:
                self.stats.stores += 1
            else:
                self.stats.loads += 1
            wf.advance_pc()
        elif kind is _WAITCNT:
            if wf.outstanding <= instr.wait_target:
                wf.ready_at = now + cycle
                wf.advance_pc()
            else:
                wf.block_wait(instr.wait_target, now)
                self._runnable -= 1
        elif kind is _BARRIER:
            wg = wf.workgroup_id
            wf.block_barrier(now)
            self._runnable -= 1
            arrived = self.barrier_arrived.get(wg, 0) + 1
            self.barrier_arrived[wg] = arrived
            if arrived >= self.wg_alive.get(wg, 0):
                self._release_barrier(wg, now + cycle)
        elif kind is _BRANCH:
            wf.take_branch(wf.pc_idx, instr)
            wf.ready_at = now + cycle
            wf.committed += 1
            self.stats.committed += 1
            self.stats.committed_compute += 1
        elif kind is _ENDPGM:
            self._retire_wave(wf, now)
        else:  # pragma: no cover - enum is closed
            raise RuntimeError(f"unhandled instruction kind {kind}")

    def _release_barrier(self, wg: int, release_time: float) -> None:
        for other in self.waves:
            if other.workgroup_id == wg and other.blocked_barrier:
                other.unblock_barrier(release_time, self.epoch_start)
                self._wake(other)
        self.barrier_arrived[wg] = 0

    def _retire_wave(self, wf: Wavefront, now: float) -> int:
        """Retire an ENDPGM'd wave; returns its former ``waves`` index.

        Reference-loop fidelity: the event engine's scan does not examine
        again the wave that shifts into that slot (the reference loop's
        list iteration steps past it), dispatched newcomers included.
        """
        wf.done = True
        self._runnable -= 1
        self.last_retire_time = now
        wg = wf.workgroup_id
        self.wg_alive[wg] = self.wg_alive.get(wg, 1) - 1
        waves = self.waves
        pos = self._wave_pos
        idx = pos.pop(wf.wf_id)
        del waves[idx]
        for i in range(idx, len(waves)):
            pos[waves[i].wf_id] = i
        self.wave_by_id.pop(wf.wf_id, None)
        if self.wg_alive[wg] <= 0:
            self.wg_alive.pop(wg, None)
            self.barrier_arrived.pop(wg, None)
        elif self.barrier_arrived.get(wg, 0) >= self.wg_alive[wg] > 0:
            # The retiring wave may have been the last one a barrier was
            # waiting on.
            self._release_barrier(wg, now)
        self.try_dispatch(now)
        return idx

    # ------------------------------------------------------------------
    # Snapshot

    def clone(self) -> "ComputeUnit":
        out = ComputeUnit.__new__(ComputeUnit)
        out.cu_id = self.cu_id
        out.config = self.config
        out.frequency_ghz = self.frequency_ghz
        out.now = self.now
        out.epoch_start = self.epoch_start
        out.waves = [wf.clone() for wf in self.waves]
        out.pending_workgroups = deque(self.pending_workgroups)
        out.completions = list(self.completions)
        out._completion_seq = self._completion_seq
        out.wave_by_id = {wf.wf_id: wf for wf in out.waves}
        out.barrier_arrived = dict(self.barrier_arrived)
        out.wg_alive = dict(self.wg_alive)
        out._next_age = self._next_age
        out._next_wf_id = self._next_wf_id
        out.stats = self.stats.clone()
        out.last_retire_time = self.last_retire_time
        out._wave_pos = {wf.wf_id: i for i, wf in enumerate(out.waves)}
        out._event_engine = self._event_engine
        out._cycle_now = self.now
        out._rebuild_event_state()
        out.ctr_cycles = 0
        out.ctr_waves_scanned = 0
        out.ctr_batched = 0
        out.ctr_completions = 0
        return out

    def capture(self) -> tuple:
        """Flat-tuple snapshot of all mutable state (no object cloning).

        Wave state is captured via :meth:`Wavefront.capture`; immutable
        ``Program``/config objects are shared by reference. Restoring
        with :meth:`restore_capture` reuses the existing wavefront and
        CU stats objects, so forking an epoch many times allocates almost
        nothing after the first restore.
        """
        return (
            self.frequency_ghz,
            self.now,
            self.epoch_start,
            tuple(wf.capture() for wf in self.waves),
            tuple(self.pending_workgroups),
            tuple(self.completions),
            self._completion_seq,
            tuple(self.barrier_arrived.items()),
            tuple(self.wg_alive.items()),
            self._next_age,
            self._next_wf_id,
            self.stats.capture(),
            self.last_retire_time,
        )

    def restore_capture(self, cap: tuple) -> None:
        """Overwrite this CU's state from a :meth:`capture` tuple."""
        (
            self.frequency_ghz,
            self.now,
            self.epoch_start,
            wave_caps,
            pending,
            completions,
            self._completion_seq,
            barrier,
            alive,
            self._next_age,
            self._next_wf_id,
            stats_cap,
            self.last_retire_time,
        ) = cap
        old_by_id = self.wave_by_id
        waves: List[Wavefront] = []
        by_id: Dict[int, Wavefront] = {}
        pos: Dict[int, int] = {}
        for wc in wave_caps:
            wf = old_by_id.get(wc[0])
            if wf is not None and wf.code is wc[3]:
                wf.restore_capture(wc)
            else:
                wf = Wavefront.from_capture(wc)
            pos[wf.wf_id] = len(waves)
            waves.append(wf)
            by_id[wf.wf_id] = wf
        self.waves = waves
        self.wave_by_id = by_id
        self._wave_pos = pos
        self.pending_workgroups = deque(pending)
        self.completions = list(completions)
        self.barrier_arrived = dict(barrier)
        self.wg_alive = dict(alive)
        self.stats.restore_capture(stats_cap)
        self._cycle_now = self.now
        self._rebuild_event_state()

    def capture_nbytes(self) -> int:
        """Rough payload size of :meth:`capture` (for the profiler)."""
        n = 8 * 13
        for wf in self.waves:
            n += wf.capture_nbytes()
        n += 32 * len(self.completions)
        n += 16 * (len(self.barrier_arrived) + len(self.wg_alive))
        n += 24 * sum(len(g) for g in self.pending_workgroups)
        return n


__all__ = ["ComputeUnit", "CuEpochStats", "PendingWave"]
