"""Frequency-sensitivity estimation models (Sections 2.3 and 4.2).

All models share the interval-analysis skeleton: split the elapsed epoch
into an *asynchronous* slice ``T_async`` (memory-bound; wall-clock
constant under frequency change) and a *core* slice ``T_core`` (scales
inversely with frequency). For an epoch of length ``T`` run at ``f1``
that committed ``I`` instructions, the predicted commits at ``f2`` in an
equally long epoch follow from rate scaling::

    I(f2) = T * I / (T_core * f1/f2 + T_async)

The models differ only in how they extract ``T_async`` from hardware
counters, and at what level (CU vs wavefront) they apply the split:

* :class:`StallModel` (CU) - idle-issue time is async (no MLP).
* :class:`LeadingLoadModel` (CU) - latency of leading loads is async.
* :class:`CriticalPathModel` (CU) - non-overlapped memory latency.
* :class:`CrispModel` (CU) - critical path plus store-stall correction
  and compute/memory overlap credit (the GPU state of the art [20]).
* :class:`WavefrontStallModel` (wavefront) - the paper's estimator:
  per-wavefront ``s_waitcnt`` stall time, age-normalised for scheduling
  contention (Section 4.4); feeds the PC table.
"""

from __future__ import annotations

import abc
from typing import List, NamedTuple, Tuple

from repro.config import GpuConfig
from repro.core.sensitivity import LinearSensitivity, aggregate
from repro.gpu.gpu import EpochResult, WaveEpochRecord


def _interval_terms(
    committed: float,
    t_core_ns: float,
    t_async_ns: float,
    f1_ghz: float,
    f_lo_ghz: float,
    f_hi_ghz: float,
) -> Tuple[float, float]:
    """``(i0, slope)`` of :func:`interval_line`, as plain numbers."""
    total = t_core_ns + t_async_ns
    if total <= 0.0 or committed <= 0.0:
        return (committed if committed > 0.0 else 0.0), 0.0
    # Commits at f2 = total * committed / (t_core * f1/f2 + t_async).
    denom = t_core_ns * (f1_ghz / f_lo_ghz) + t_async_ns
    i_lo = committed if denom <= 0.0 else total * committed / denom
    denom = t_core_ns * (f1_ghz / f_hi_ghz) + t_async_ns
    i_hi = committed if denom <= 0.0 else total * committed / denom
    if f_hi_ghz == f_lo_ghz:
        return i_lo, 0.0
    # LinearSensitivity.from_two_points, inlined.
    slope = (i_hi - i_lo) / (f_hi_ghz - f_lo_ghz)
    return i_lo - slope * f_lo_ghz, slope


def interval_line(
    committed: float,
    t_core_ns: float,
    t_async_ns: float,
    f1_ghz: float,
    f_lo_ghz: float,
    f_hi_ghz: float,
) -> LinearSensitivity:
    """Linearise the interval model over the DVFS frequency range.

    Evaluates the rate-scaling formula at the grid endpoints and draws a
    line through them - matching how the paper's linear sensitivity is
    defined over the 1.3-2.2 GHz window (Section 3.2).
    """
    return LinearSensitivity(
        *_interval_terms(committed, t_core_ns, t_async_ns, f1_ghz, f_lo_ghz, f_hi_ghz)
    )


class WavefrontEstimate(NamedTuple):
    """Per-wavefront sensitivity estimate, keyed by the epoch's start PC."""

    record: WaveEpochRecord
    line: LinearSensitivity


class EstimationModel(abc.ABC):
    """Estimates the sensitivity of an *elapsed* epoch from counters."""

    name: str = "abstract"

    @abc.abstractmethod
    def estimate_cu(
        self,
        result: EpochResult,
        cu_id: int,
        f_ghz: float,
        f_lo_ghz: float,
        f_hi_ghz: float,
        config: GpuConfig,
    ) -> LinearSensitivity:
        """Sensitivity line of one CU for the elapsed epoch."""

    def estimate_wavefronts(
        self,
        result: EpochResult,
        cu_id: int,
        f_ghz: float,
        f_lo_ghz: float,
        f_hi_ghz: float,
        config: GpuConfig,
    ) -> List[WavefrontEstimate]:
        """Per-wavefront estimates; default distributes the CU estimate
        proportionally to each wavefront's committed share."""
        cu_line = self.estimate_cu(result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config)
        records = result.wave_records[cu_id]
        total = sum(r.committed for r in records)
        if total <= 0 or not records:
            return [WavefrontEstimate(r, LinearSensitivity.zero()) for r in records]
        out = []
        for r in records:
            share = r.committed / total
            out.append(
                WavefrontEstimate(
                    r, LinearSensitivity(cu_line.i0 * share, cu_line.slope * share)
                )
            )
        return out


def _cu_core_ns(result: EpochResult, cu_id: int) -> float:
    return result.cu_stats[cu_id].core_busy_ns


def _wave_stat_mean(result: EpochResult, cu_id: int, attr: str) -> float:
    records = result.wave_records[cu_id]
    if not records:
        return 0.0
    return sum(getattr(r, attr) for r in records) / len(records)


class StallModel(EstimationModel):
    """STALL [24]: async time = time the core issued nothing.

    Ignores memory-level parallelism: any idle-issue time is blamed on
    memory, which overestimates the async slice for latency-hidden GPU
    phases.
    """

    name = "STALL"

    def estimate_cu(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        t = result.duration_ns
        t_core = min(t, _cu_core_ns(result, cu_id))
        t_async = t - t_core
        committed = result.cu_stats[cu_id].committed
        return interval_line(committed, t_core, t_async, f_ghz, f_lo_ghz, f_hi_ghz)


class LeadingLoadModel(EstimationModel):
    """LEAD [24,32,33]: async time = accumulated leading-load latency.

    Incorporates MLP by only counting loads issued with nothing in
    flight. Applied at the CU level the per-wavefront leading loads are
    averaged, treating the CU as one in-order thread - the approximation
    the paper criticises (Section 4.1).
    """

    name = "LEAD"

    def estimate_cu(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        t = result.duration_ns
        t_async = min(t, _wave_stat_mean(result, cu_id, "leading_load_ns"))
        t_core = t - t_async
        committed = result.cu_stats[cu_id].committed
        return interval_line(committed, t_core, t_async, f_ghz, f_lo_ghz, f_hi_ghz)


class CriticalPathModel(EstimationModel):
    """CRIT [10]: async time = non-overlapped memory latency on the
    critical path, averaged across wavefronts at the CU level."""

    name = "CRIT"

    def estimate_cu(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        t = result.duration_ns
        t_async = min(t, _wave_stat_mean(result, cu_id, "critical_mem_ns"))
        t_core = t - t_async
        committed = result.cu_stats[cu_id].committed
        return interval_line(committed, t_core, t_async, f_ghz, f_lo_ghz, f_hi_ghz)


class CrispModel(EstimationModel):
    """CRISP [20]: the GPU extension of the critical-path model.

    Blends the issue-idle time with per-wavefront stall measurements,
    credits compute/memory overlap, and adds the store-stall term CRISP
    introduced. Still treats the CU as a single-threaded core
    (Figure 2a), which is its fundamental limitation at fine grain.
    """

    name = "CRISP"

    #: Weight of the store-stall correction term.
    store_weight: float = 0.3
    #: Fraction of measured per-wave stall treated as hidden by overlap.
    overlap_credit: float = 0.5

    def estimate_cu(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        t = result.duration_ns
        t_idle = max(0.0, t - _cu_core_ns(result, cu_id))
        avg_stall = _wave_stat_mean(result, cu_id, "stall_ns")
        avg_store = _wave_stat_mean(result, cu_id, "store_stall_ns")
        # Overlap credit: stall time that other wavefronts covered with
        # compute does not make the CU asynchronous.
        t_async = t_idle + self.overlap_credit * max(
            0.0, avg_stall - t_idle
        ) + self.store_weight * avg_store
        t_async = min(t, t_async)
        t_core = t - t_async
        committed = result.cu_stats[cu_id].committed
        return interval_line(committed, t_core, t_async, f_ghz, f_lo_ghz, f_hi_ghz)


class WavefrontStallModel(EstimationModel):
    """The paper's estimator: the STALL model applied per wavefront.

    Each wavefront's ``s_waitcnt`` stall time is directly measurable;
    the remaining time is its core time. Estimates are normalised by the
    wavefront's relative age because the oldest-first scheduler gives
    younger wavefronts extra (frequency-scaling) contention delay
    (Section 4.4, Figure 11a).
    """

    name = "WF-STALL"

    #: Strength of the age normalisation; 0 disables it (ablation).
    age_kappa: float = 0.35

    def __init__(self, age_kappa: float = 0.35) -> None:
        self.age_kappa = age_kappa

    def estimate_wavefronts(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        records = result.wave_records[cu_id]
        t = result.duration_ns
        n = max(1, len(records))
        kappa = self.age_kappa
        age_normalise = kappa > 0.0 and n > 1
        mid_f = 0.5 * (f_lo_ghz + f_hi_ghz)
        out: List[WavefrontEstimate] = []
        for r in records:
            t_async = min(t, r.stall_ns + r.barrier_stall_ns)
            t_core = t - t_async
            i0, slope = _interval_terms(r.committed, t_core, t_async, f_ghz, f_lo_ghz, f_hi_ghz)
            if age_normalise:
                # Younger (higher-rank) wavefronts saw scheduling
                # contention that scales with frequency: part of their
                # apparent stall is actually core time. Shift a rank-
                # proportional slice of i0 into slope.
                shift = kappa * (r.age_rank / (n - 1))
                moved = shift * (i0 if i0 > 0.0 else 0.0) * 0.1
                i0, slope = i0 - moved, slope + moved / mid_f
            out.append(WavefrontEstimate(r, LinearSensitivity(i0, slope)))
        return out

    def estimate_cu(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        parts = self.estimate_wavefronts(result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config)
        return aggregate(p.line for p in parts)


class WavefrontLeadModel(EstimationModel):
    """Leading-load model applied per wavefront (extension).

    Uses each wavefront's own leading-load latency as its asynchronous
    time. Included to show the PC-based mechanism is estimator-agnostic
    (the paper picked the STALL model purely for simplicity, Section 5.3).
    """

    name = "WF-LEAD"

    def estimate_wavefronts(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        t = result.duration_ns
        out: List[WavefrontEstimate] = []
        for r in result.wave_records[cu_id]:
            t_async = min(t, r.leading_load_ns + r.barrier_stall_ns)
            line = interval_line(r.committed, t - t_async, t_async, f_ghz, f_lo_ghz, f_hi_ghz)
            out.append(WavefrontEstimate(r, line))
        return out

    def estimate_cu(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        parts = self.estimate_wavefronts(result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config)
        return aggregate(p.line for p in parts)


class WavefrontCritModel(EstimationModel):
    """Critical-path model applied per wavefront (extension)."""

    name = "WF-CRIT"

    def estimate_wavefronts(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        t = result.duration_ns
        out: List[WavefrontEstimate] = []
        for r in result.wave_records[cu_id]:
            t_async = min(t, r.critical_mem_ns + r.barrier_stall_ns)
            line = interval_line(r.committed, t - t_async, t_async, f_ghz, f_lo_ghz, f_hi_ghz)
            out.append(WavefrontEstimate(r, line))
        return out

    def estimate_cu(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        parts = self.estimate_wavefronts(result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config)
        return aggregate(p.line for p in parts)


ALL_CU_MODELS: Tuple[EstimationModel, ...] = (
    StallModel(),
    LeadingLoadModel(),
    CriticalPathModel(),
    CrispModel(),
)


__all__ = [
    "EstimationModel",
    "StallModel",
    "LeadingLoadModel",
    "CriticalPathModel",
    "CrispModel",
    "WavefrontStallModel",
    "WavefrontLeadModel",
    "WavefrontCritModel",
    "WavefrontEstimate",
    "interval_line",
    "ALL_CU_MODELS",
]
