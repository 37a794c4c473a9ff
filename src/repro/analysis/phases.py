"""Fine-grain phase-behaviour studies (Sections 3.3 and 4.3).

These drivers run a workload at a fixed reference frequency while the
fork-and-pre-execute oracle measures the *true* sensitivity of every
epoch - at domain, CU, and wavefront granularity. The resulting
:class:`SensitivityTrace` feeds:

* Figure 6  - sensitivity-over-time profiles,
* Figure 7  - relative sensitivity change across consecutive epochs,
* Figure 8  - per-wavefront contribution to CU sensitivity,
* Figure 10 - change across same-starting-PC iterations,
* Figure 11a - per-wavefront-slot contention profile,
* Figure 11b - PC-table index offset-bit sweep.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.sensitivity import fit_linear, weighted_relative_change
from repro.dvfs.oracle import OracleSampler
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel


@dataclass(frozen=True)
class WaveObservation:
    """True sensitivity of one wavefront over one epoch."""

    wf_id: int
    cu_id: int
    age_rank: int
    start_pc_idx: int
    slope: float
    committed: int


@dataclass(frozen=True)
class EpochObservation:
    """True sensitivities of one epoch at every granularity."""

    index: int
    domain_slopes: Tuple[float, ...]
    cu_slopes: Tuple[float, ...]
    waves: Tuple[WaveObservation, ...]
    #: Commits of each CU in the actually-executed epoch (sets the scale
    #: against which a sensitivity change is meaningful).
    cu_commits: Tuple[int, ...] = ()

    @property
    def gpu_slope(self) -> float:
        return sum(self.cu_slopes)


@dataclass
class SensitivityTrace:
    """Chronological record of a profiled run."""

    workload: str
    config: SimConfig
    epochs: List[EpochObservation] = field(default_factory=list)

    def domain_series(self, domain: int) -> List[float]:
        return [e.domain_slopes[domain] for e in self.epochs]

    def cu_series(self, cu_id: int) -> List[float]:
        return [e.cu_slopes[cu_id] for e in self.epochs]

    def gpu_series(self) -> List[float]:
        return [e.gpu_slope for e in self.epochs]

    def cu_slope_floor(self, fraction: float = 0.05) -> float:
        """Smallest meaningful CU-level sensitivity for this trace.

        A CU committing I instructions per epoch at f_ref could at most
        exhibit a slope around I/f_ref; slopes below ``fraction`` of
        that are in the measurement-noise regime.
        """
        commits = [c for e in self.epochs for c in e.cu_commits]
        if not commits:
            return 0.0
        mean_c = sum(commits) / len(commits)
        return fraction * mean_c / self.config.dvfs.reference_freq_ghz

    def wave_slope_floor(self, fraction: float = 0.05) -> float:
        """Smallest meaningful per-wavefront sensitivity for this trace."""
        commits = [w.committed for e in self.epochs for w in e.waves]
        if not commits:
            return 0.0
        mean_c = sum(commits) / len(commits)
        return fraction * mean_c / self.config.dvfs.reference_freq_ghz


def profile_sensitivity(
    kernels: Sequence[Kernel],
    config: SimConfig,
    max_epochs: int = 60,
    epoch_ns: Optional[float] = None,
    workload_name: str = "",
) -> SensitivityTrace:
    """Run at the reference frequency, oracle-measuring every epoch.

    Each epoch is pre-executed once per frequency state (shuffled across
    domains); per-CU and per-wavefront commits from those samples give
    least-squares sensitivity slopes at every granularity.
    """
    epoch = epoch_ns if epoch_ns is not None else config.dvfs.epoch_ns
    gpu = Gpu(config.gpu, initial_freq_ghz=config.dvfs.reference_freq_ghz)
    pending = [k for k in kernels]
    gpu.load_kernel(pending.pop(0))
    sampler = OracleSampler(config)
    plan = sampler.sample_plan(len(gpu.domains))
    trace = SensitivityTrace(workload_name or kernels[0].name, config)

    for idx in range(max_epochs):
        if gpu.done:
            if not pending:
                break
            gpu.load_kernel(pending.pop(0))

        # Collect per-CU and per-wavefront points across the shuffled
        # pre-executions.
        cu_points: List[List[Tuple[float, int]]] = [[] for _ in range(config.gpu.n_cus)]
        wave_points: Dict[int, List[Tuple[float, int]]] = defaultdict(list)
        domain_points: List[List[Tuple[float, int]]] = [
            [] for _ in range(config.gpu.n_domains)
        ]
        results = sampler.pre_execute(gpu, plan, epoch, collect_waves=True)
        for freqs, result in zip(plan, results):
            for d, commits in enumerate(gpu.committed_per_domain(result)):
                domain_points[d].append((freqs[d], commits))
            for cu_id in range(config.gpu.n_cus):
                f = freqs[cu_id // config.gpu.cus_per_domain]
                cu_points[cu_id].append((f, result.cu_stats[cu_id].committed))
                for record in result.wave_records[cu_id]:
                    wave_points[record.wf_id].append((f, record.committed))

        domain_slopes = tuple(
            fit_linear([p[0] for p in pts], [p[1] for p in pts]).model.slope
            for pts in domain_points
        )
        cu_slopes = tuple(
            fit_linear([p[0] for p in pts], [p[1] for p in pts]).model.slope
            for pts in cu_points
        )

        # Advance the real execution; its wave records give start PCs
        # and age ranks for the per-wavefront observations.
        result = gpu.run_epoch(epoch)
        waves: List[WaveObservation] = []
        for cu_id in range(config.gpu.n_cus):
            for record in result.wave_records[cu_id]:
                pts = wave_points.get(record.wf_id, [])
                if len(pts) < 3:
                    continue
                slope = fit_linear([p[0] for p in pts], [p[1] for p in pts]).model.slope
                waves.append(
                    WaveObservation(
                        wf_id=record.wf_id,
                        cu_id=cu_id,
                        age_rank=record.age_rank,
                        start_pc_idx=record.start_pc_idx,
                        slope=slope,
                        committed=record.committed,
                    )
                )
        trace.epochs.append(
            EpochObservation(
                idx,
                domain_slopes,
                cu_slopes,
                tuple(waves),
                cu_commits=tuple(s.committed for s in result.cu_stats),
            )
        )
    return trace


# ----------------------------------------------------------------------
# Figure 7: consecutive-epoch variability


def consecutive_epoch_change(trace: SensitivityTrace, level: str = "cu") -> float:
    """Magnitude-weighted mean sensitivity change between consecutive
    epochs (Figure 7).

    ``level``: ``"cu"`` (paper's Figure 7 uses per-CU sensitivities),
    ``"domain"``, ``"wf"`` (per-wavefront), or ``"gpu"``.
    """
    cu_floor = trace.cu_slope_floor()
    if level == "gpu":
        n_cus = len(trace.epochs[0].cu_slopes) if trace.epochs else 1
        return weighted_relative_change([trace.gpu_series()], floor=cu_floor * n_cus)
    if level == "domain":
        n = len(trace.epochs[0].domain_slopes) if trace.epochs else 0
        per = trace.config.gpu.cus_per_domain
        return weighted_relative_change(
            (trace.domain_series(d) for d in range(n)), floor=cu_floor * per
        )
    if level == "cu":
        n = len(trace.epochs[0].cu_slopes) if trace.epochs else 0
        return weighted_relative_change(
            (trace.cu_series(c) for c in range(n)), floor=cu_floor
        )
    if level == "wf":
        per_wf: Dict[int, List[float]] = defaultdict(list)
        for epoch in trace.epochs:
            for w in epoch.waves:
                per_wf[w.wf_id].append(w.slope)
        return weighted_relative_change(per_wf.values(), floor=trace.wave_slope_floor())
    raise ValueError("level must be 'cu', 'domain', 'wf' or 'gpu'")


# ----------------------------------------------------------------------
# Figure 10 / 11b: same-PC iteration variability


def _pc_key(pc_idx: int, offset_bits: int, instruction_bytes: int) -> int:
    return (pc_idx * instruction_bytes) >> offset_bits


def same_pc_iteration_change(
    trace: SensitivityTrace,
    granularity: str = "wf",
    offset_bits: int = 4,
    min_occurrences: int = 2,
) -> float:
    """Mean relative change between consecutive epochs that *start at the
    same PC* within a sharing boundary (Figure 10).

    ``granularity``: ``"wf"`` - same wavefront; ``"cu"`` - any wavefront
    of the same CU; ``"gpu"`` - any wavefront anywhere (the paper's
    64CU series).
    """
    ibytes = trace.config.gpu.instruction_bytes
    series: Dict[Tuple, List[float]] = defaultdict(list)
    for epoch in trace.epochs:
        for w in epoch.waves:
            pc = _pc_key(w.start_pc_idx, offset_bits, ibytes)
            if granularity == "wf":
                key = (w.wf_id, pc)
            elif granularity == "cu":
                key = (w.cu_id, pc)
            elif granularity == "gpu":
                key = (pc,)
            else:
                raise ValueError("granularity must be 'wf', 'cu' or 'gpu'")
            series[key].append(w.slope)

    return weighted_relative_change(
        (vals for vals in series.values() if len(vals) >= min_occurrences),
        floor=trace.wave_slope_floor(),
    )


def offset_bits_sweep(
    trace: SensitivityTrace, offsets: Sequence[int] = (0, 2, 4, 6, 8, 10)
) -> Dict[int, float]:
    """Figure 11b: same-PC change at CU granularity vs index offset bits."""
    return {
        o: same_pc_iteration_change(trace, granularity="cu", offset_bits=o)
        for o in offsets
    }


# ----------------------------------------------------------------------
# Figure 11a: per-slot contention profile


def wavefront_slot_change(trace: SensitivityTrace, max_slots: int = 16) -> List[float]:
    """Mean same-PC sensitivity change per wavefront slot (age rank).

    The oldest slot (rank 0) should show the least change - it always
    wins scheduling arbitration - while younger slots absorb contention
    (Figure 11a).
    """
    ibytes = trace.config.gpu.instruction_bytes
    series: Dict[Tuple[int, int, int], List[float]] = defaultdict(list)
    for epoch in trace.epochs:
        for w in epoch.waves:
            if w.age_rank >= max_slots:
                continue
            pc = _pc_key(w.start_pc_idx, 4, ibytes)
            series[(w.age_rank, w.cu_id, pc)].append(w.slope)

    per_slot: Dict[int, List[List[float]]] = defaultdict(list)
    for (rank, _cu, _pc), vals in series.items():
        if len(vals) < 2:
            continue
        per_slot[rank].append(vals)
    floor = trace.wave_slope_floor()
    return [
        weighted_relative_change(per_slot.get(rank, []), floor=floor)
        for rank in range(max_slots)
    ]


# ----------------------------------------------------------------------
# Figure 8: wavefront contribution profile


def wavefront_contributions(
    trace: SensitivityTrace, cu_id: int = 0, max_slots: int = 8
) -> List[List[float]]:
    """Per-epoch sensitivity of each wavefront slot of one CU.

    Returns one series per slot rank (0..max_slots-1); the sum over
    slots approximates the CU's total sensitivity (Figure 8).
    """
    out: List[List[float]] = [[] for _ in range(max_slots)]
    for epoch in trace.epochs:
        by_rank = {w.age_rank: w.slope for w in epoch.waves if w.cu_id == cu_id}
        for rank in range(max_slots):
            out[rank].append(by_rank.get(rank, 0.0))
    return out


__all__ = [
    "WaveObservation",
    "EpochObservation",
    "SensitivityTrace",
    "profile_sensitivity",
    "consecutive_epoch_change",
    "same_pc_iteration_change",
    "offset_bits_sweep",
    "wavefront_slot_change",
    "wavefront_contributions",
]
