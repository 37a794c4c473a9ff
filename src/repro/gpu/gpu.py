"""Top-level GPU: CUs + shared memory + V/f domains, epoch stepping.

The :class:`Gpu` orchestrates the CUs through fixed-time epochs. CUs in
different V/f domains advance in interleaved time quanta so the shared
memory subsystem observes requests in near-global-time order, which keeps
inter-domain contention effects (Section 5.1) intact without a global
per-cycle event queue.

``Gpu.clone()`` produces a deterministic deep snapshot: running the clone
and the original with the same frequencies yields bit-identical results.
This is the substrate for the paper's fork-and-pre-execute oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.config import GpuConfig
from repro.gpu.clock import DomainMap
from repro.gpu.cu import ComputeUnit, CuEpochStats
from repro.gpu.kernel import Kernel
from repro.gpu.memory import MemorySubsystem


class WaveEpochRecord(NamedTuple):
    """What one wavefront did during an epoch (input to PCSTALL).

    One flat named tuple of the values the estimators read: identity and
    PCs, then the wave's epoch counters (see
    :class:`~repro.gpu.wavefront.Wavefront`). Immutable, cheap to build
    (the service builds one per wave per observation), and it travels on
    the wire as one flat list in field order.
    """

    wf_id: int
    age_rank: int
    start_pc_idx: int
    next_pc_idx: int
    committed: int
    stall_ns: float
    store_stall_ns: float
    barrier_stall_ns: float
    leading_load_ns: float
    critical_mem_ns: float


@dataclass(frozen=True)
class GpuSnapshot:
    """Flat-state snapshot of a :class:`Gpu` (see :meth:`Gpu.snapshot`).

    Everything mutable is captured as plain tuples of scalars; immutable
    structures (``Program`` objects, configs) are shared by reference -
    copy-on-write in spirit, since nothing ever mutates them. Restoring
    into a live GPU (:meth:`Gpu.restore`) reuses its wavefront and CU
    stats objects, so replaying an epoch many times from one snapshot -
    the oracle's fork-and-pre-execute loop - allocates almost nothing.
    """

    config: "GpuConfig"
    time: float
    pending_transitions: int
    next_wg_base: int
    domains: tuple
    memory: tuple
    cus: Tuple[tuple, ...]
    #: Estimated payload size (bytes) for the hot-path profiler.
    nbytes: int


@dataclass(frozen=True)
class EpochResult:
    """Everything observable about one elapsed epoch."""

    t_start: float
    t_end: float
    frequencies_ghz: Tuple[float, ...]
    cu_stats: Tuple[CuEpochStats, ...]
    wave_records: Tuple[Tuple[WaveEpochRecord, ...], ...]
    transitions: int

    @property
    def duration_ns(self) -> float:
        return self.t_end - self.t_start

    def total_committed(self) -> int:
        return sum(s.committed for s in self.cu_stats)


class Gpu:
    """The simulated GPU."""

    def __init__(self, config: GpuConfig, initial_freq_ghz: float = 1.7) -> None:
        self.config = config
        self.memory = MemorySubsystem(config.memory)
        self.cus = [ComputeUnit(i, config) for i in range(config.n_cus)]
        self.domains = DomainMap(config, initial_freq_ghz)
        for cu in self.cus:
            cu.frequency_ghz = initial_freq_ghz
        self.time = 0.0
        self._pending_transitions = 0
        self._next_wg_base = 0
        # Hot-path counters (observational only; see repro.runtime.profiling).
        self.ctr_clones = 0
        self.ctr_clone_bytes = 0
        self.ctr_snapshots = 0
        self.ctr_snapshot_bytes = 0
        self.ctr_restores = 0

    # ------------------------------------------------------------------
    # Workload loading

    def load_kernel(self, kernel: Kernel, cu_ids: Optional[Sequence[int]] = None) -> None:
        """Distribute the kernel's workgroups across CUs round-robin.

        ``cu_ids`` restricts dispatch to a subset of CUs - the
        co-location scenario where different tenants own different CUs
        (and, with per-CU V/f domains, get independently tuned
        frequencies). Workgroup ids are globally unique across loads so
        concurrent kernels cannot collide in barrier bookkeeping.
        """
        targets = list(cu_ids) if cu_ids is not None else list(range(len(self.cus)))
        for cu_id in targets:
            if not 0 <= cu_id < len(self.cus):
                raise ValueError(f"cu id {cu_id} out of range")
        per_group = kernel.geometry.waves_per_workgroup
        if per_group > self.config.waves_per_cu:
            # Workgroups dispatch whole, so this one could never start.
            raise ValueError(
                f"kernel {kernel.name!r} has {per_group} waves per workgroup, "
                f"more than waves_per_cu={self.config.waves_per_cu}"
            )
        base = self._next_wg_base
        for wg in range(kernel.geometry.n_workgroups):
            cu = self.cus[targets[wg % len(targets)]]
            # Compile at load time: every wave of the kernel shares the
            # program's cached decode table by reference.
            waves = [
                (base + wg, w, kernel.program_for(wg, w).compiled)
                for w in range(kernel.geometry.waves_per_workgroup)
            ]
            cu.enqueue_workgroup(waves)
        self._next_wg_base = base + kernel.geometry.n_workgroups
        for cu in self.cus:
            cu.try_dispatch(self.time)

    @property
    def done(self) -> bool:
        return all(cu.idle for cu in self.cus)

    @property
    def completion_time(self) -> float:
        """Time the last wavefront retired (valid once ``done``)."""
        return max(cu.last_retire_time for cu in self.cus)

    # ------------------------------------------------------------------
    # Frequency control

    def set_domain_frequencies(
        self, freqs_ghz: Sequence[float], transition_latency_ns: float = 0.0
    ) -> int:
        """Apply per-domain frequencies for the next epoch.

        A domain whose frequency actually changes is frozen for
        ``transition_latency_ns`` (its CUs cannot issue until the V/f
        transition settles). Returns the number of domains that changed.

        Known fidelity bug: both engines rewind a CU that starts a sync
        quantum past its end to that end, so a latency longer than
        ``sync_quantum_ns`` stalls the CU for one quantum only (DESIGN
        §3c).
        """
        if len(freqs_ghz) != len(self.domains):
            raise ValueError(
                f"expected {len(self.domains)} frequencies, got {len(freqs_ghz)}"
            )
        changed = 0
        for domain, f in zip(self.domains, freqs_ghz):
            if f != domain.frequency_ghz:
                changed += 1
                domain.frequency_ghz = f
                domain.transitions += 1
                for cu_id in domain.cu_ids:
                    cu = self.cus[cu_id]
                    cu.frequency_ghz = f
                    if transition_latency_ns > 0.0:
                        cu.now = max(cu.now, self.time + transition_latency_ns)
        self._pending_transitions += changed
        return changed

    # ------------------------------------------------------------------
    # Epoch stepping

    def run_epoch(self, epoch_ns: float, collect_waves: bool = True) -> EpochResult:
        """Advance all CUs by one fixed-time epoch and collect stats.

        ``collect_waves=False`` skips materialising the per-wavefront
        :class:`WaveEpochRecord` tuples (one per resident wave). Callers
        that only consume CU-level aggregates - the oracle's forked
        pre-executions read nothing but :meth:`committed_per_domain` -
        use this to keep the sampling loop allocation-free;
        ``wave_records`` is then empty.
        """
        t0 = self.time
        t1 = t0 + epoch_ns
        for cu in self.cus:
            cu.begin_epoch(t0)
        # One resumable stepper per CU for the whole epoch. Every CU runs
        # a quantum, in CU order, before any CU starts the next: that is
        # the request order the shared memory subsystem sees.
        steppers = [cu.steps(self.memory) for cu in self.cus]
        for stepper in steppers:
            next(stepper)
        sends = [stepper.send for stepper in steppers]
        quantum = min(self.config.sync_quantum_ns, epoch_ns)
        t = t0
        while t < t1 - 1e-9:
            t = min(t + quantum, t1)
            for send in sends:
                send(t)
        for stepper in steppers:
            stepper.close()
        for cu in self.cus:
            cu.settle_epoch(t1)
        self.time = t1

        wave_records: List[Tuple[WaveEpochRecord, ...]] = []
        cu_stats: List[CuEpochStats] = []
        for cu in self.cus:
            if collect_waves:
                records = tuple(
                    WaveEpochRecord(
                        wf.wf_id, rank, wf.epoch_start_pc_idx, wf.pc_idx, wf.committed,
                        wf.stall_ns, wf.store_stall_ns, wf.barrier_stall_ns,
                        wf.leading_load_ns, wf.critical_mem_ns,
                    )
                    for rank, wf in enumerate(cu.waves)
                )
                wave_records.append(records)
            cu_stats.append(cu.stats.clone())

        transitions = self._pending_transitions
        self._pending_transitions = 0
        return EpochResult(
            t_start=t0,
            t_end=t1,
            frequencies_ghz=tuple(self.domains.frequencies()),
            cu_stats=tuple(cu_stats),
            wave_records=tuple(wave_records),
            transitions=transitions,
        )

    # ------------------------------------------------------------------
    # Domain-level aggregation helpers

    def committed_per_domain(self, result: EpochResult) -> List[int]:
        out = []
        for domain in self.domains:
            out.append(sum(result.cu_stats[cu_id].committed for cu_id in domain.cu_ids))
        return out

    # ------------------------------------------------------------------
    # Snapshot

    def state_nbytes(self) -> int:
        """Estimated size (bytes) of the mutable simulator state."""
        return self.memory.capture_nbytes() + 8 * 3 + 16 * len(self.domains) + sum(
            cu.capture_nbytes() for cu in self.cus
        )

    def clone(self) -> "Gpu":
        self.ctr_clones += 1
        self.ctr_clone_bytes += self.state_nbytes()
        out = Gpu.__new__(Gpu)
        out.config = self.config
        out.memory = self.memory.clone()
        out.cus = [cu.clone() for cu in self.cus]
        out.domains = self.domains.clone()
        out.time = self.time
        out._pending_transitions = self._pending_transitions
        out._next_wg_base = self._next_wg_base
        out.ctr_clones = 0
        out.ctr_clone_bytes = 0
        out.ctr_snapshots = 0
        out.ctr_snapshot_bytes = 0
        out.ctr_restores = 0
        return out

    def snapshot(self) -> GpuSnapshot:
        """Capture the full mutable state as a :class:`GpuSnapshot`.

        Unlike :meth:`clone`, no simulator objects are allocated: the
        snapshot is flat tuples plus shared immutable references, and
        :meth:`restore` writes it back into existing objects. This is
        what makes the oracle's ~10 forks per epoch cheap.
        """
        cus = tuple(cu.capture() for cu in self.cus)
        snap = GpuSnapshot(
            config=self.config,
            time=self.time,
            pending_transitions=self._pending_transitions,
            next_wg_base=self._next_wg_base,
            domains=self.domains.capture(),
            memory=self.memory.capture(),
            cus=cus,
            nbytes=self.state_nbytes(),
        )
        self.ctr_snapshots += 1
        self.ctr_snapshot_bytes += snap.nbytes
        return snap

    def restore(self, snap: GpuSnapshot) -> None:
        """Overwrite this GPU's state from a snapshot, reusing objects.

        The snapshot must come from a GPU built on the same config
        (same geometry); wavefront objects still resident under their
        snapshot ``wf_id`` are reused rather than reallocated.
        """
        if snap.config is not self.config:
            raise ValueError("snapshot comes from a different platform config")
        self.time = snap.time
        self._pending_transitions = snap.pending_transitions
        self._next_wg_base = snap.next_wg_base
        self.domains.restore_capture(snap.domains)
        self.memory.restore_capture(snap.memory)
        for cu, cap in zip(self.cus, snap.cus):
            cu.restore_capture(cap)
        self.ctr_restores += 1


__all__ = ["Gpu", "GpuSnapshot", "EpochResult", "WaveEpochRecord"]
