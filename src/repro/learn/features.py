"""The learned-predictor feature contract: one vector per (epoch, domain).

Everything a trained sensitivity model may consume at *serving* time
must be computable from the elapsed epoch's
:class:`~repro.gpu.gpu.EpochResult` alone (plus bounded per-domain
recurrence state) - no oracle, no PC tables, no future knowledge.
:class:`FeatureExtractor` is that computation, and it is deliberately
the **single implementation** shared by offline dataset extraction
(:mod:`repro.learn.dataset` decodes archived observation records and
replays them through an extractor) and online serving
(:class:`~repro.learn.models.LearnedPredictor` runs one inside
``observe``). Train/serve feature parity is therefore structural, not a
convention: the same floats, produced by the same arithmetic, in the
same order.

The feature vector (:data:`FEATURE_NAMES`, schema-versioned by
:data:`FEATURE_SCHEMA_VERSION`):

``bias``
    Constant 1.0 (the models' intercept channel).
``freq_ghz``
    The frequency the domain ran the elapsed epoch at.
``busy_frac`` / ``stall_frac``
    The domain's core-busy vs asynchronous-stall split of the epoch
    window (:meth:`~repro.gpu.cu.CuEpochStats.stall_breakdown` summed
    over the domain's CUs) - the paper's interval-analysis signal.
``committed`` / ``issued``
    Raw instruction counts over the domain (scale is handled by the
    model's stored feature scaler, never here).
``compute_frac`` / ``memory_frac``
    Instruction-mix shares of the committed count.
``loads`` / ``stores``
    Memory-operation counts.
``est_i0`` / ``est_slope``
    The reactive STALL estimator's sensitivity line for the elapsed
    epoch (the "prior sensitivity" feature): the learned model starts
    from the hand-built estimate and learns a correction.
``prev_committed`` / ``prev_freq_ghz``
    One epoch of recurrence: the previous epoch's commit count and
    frequency (first epoch: the current values, so the features are
    defined from epoch 0 without knowing the platform's reset state).

Dataset rows additionally carry **auxiliary** columns
(:data:`AUX_NAMES`): the elapsed epoch's oracle-true line and the
PC-table activity deltas of the *recording* design. These exist for
analysis and are stored in the ``.npz``, but models never train on them
- a served LEARNED design has no PC table and no oracle, so auxiliary
columns cannot be features without breaking parity.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import GpuConfig
from repro.core.estimators import StallModel
from repro.core.sensitivity import LinearSensitivity, aggregate

#: Bump when a feature is added/removed/reordered or changes meaning.
#: Model artifacts embed the version they were trained against and
#: refuse to serve under a different one.
FEATURE_SCHEMA_VERSION = 1

#: Serveable model inputs, in column order.
FEATURE_NAMES: Tuple[str, ...] = (
    "bias",
    "freq_ghz",
    "busy_frac",
    "stall_frac",
    "committed",
    "issued",
    "compute_frac",
    "memory_frac",
    "loads",
    "stores",
    "est_i0",
    "est_slope",
    "prev_committed",
    "prev_freq_ghz",
)

#: Dataset-only columns (never model inputs; see module docstring).
AUX_NAMES: Tuple[str, ...] = (
    "truth_i0",
    "truth_slope",
    "pc_lookups",
    "pc_hits",
    "pc_updates",
    "pc_evictions",
)

#: Regression targets: the *next* epoch's true sensitivity line.
LABEL_NAMES: Tuple[str, ...] = ("label_i0", "label_slope")


class FeatureExtractor:
    """Stateful per-domain feature computation over an epoch sequence.

    Feed epochs strictly in execution order via :meth:`observe`; the
    one-epoch recurrence state (``prev_committed`` / ``prev_freq_ghz``)
    makes call order part of the contract.
    """

    def __init__(self, config: GpuConfig, f_lo_ghz: float, f_hi_ghz: float) -> None:
        self.config = config
        self.f_lo_ghz = f_lo_ghz
        self.f_hi_ghz = f_hi_ghz
        self._estimator = StallModel()
        #: Per domain: (committed, freq_ghz) of the previous epoch.
        self._prev: List[Optional[Tuple[float, float]]] = [None] * config.n_domains

    def observe(self, result) -> List[List[float]]:
        """Feature vectors for every domain of one elapsed epoch."""
        cfg = self.config
        per = cfg.cus_per_domain
        duration = result.duration_ns
        out: List[List[float]] = []
        for d in range(cfg.n_domains):
            f = float(result.frequencies_ghz[d])
            busy = 0.0
            committed = issued = compute = memory = loads = stores = 0
            cu_ids = range(d * per, (d + 1) * per)
            for cu_id in cu_ids:
                stats = result.cu_stats[cu_id]
                busy += stats.stall_breakdown(duration)["busy_ns"]
                committed += stats.committed
                issued += stats.issued
                compute += stats.committed_compute
                memory += stats.committed_memory
                loads += stats.loads
                stores += stats.stores
            window = duration * per
            busy_frac = busy / window if window > 0 else 0.0
            est: LinearSensitivity = aggregate(
                self._estimator.estimate_cu(
                    result, cu_id, f, self.f_lo_ghz, self.f_hi_ghz, cfg
                )
                for cu_id in cu_ids
            )
            prev = self._prev[d]
            prev_committed, prev_f = prev if prev is not None else (float(committed), f)
            out.append([
                1.0,
                f,
                busy_frac,
                1.0 - busy_frac,
                float(committed),
                float(issued),
                compute / committed if committed > 0 else 0.0,
                memory / committed if committed > 0 else 0.0,
                float(loads),
                float(stores),
                est.i0,
                est.slope,
                prev_committed,
                prev_f,
            ])
            self._prev[d] = (float(committed), f)
        return out


__all__ = [
    "FEATURE_SCHEMA_VERSION",
    "FEATURE_NAMES",
    "AUX_NAMES",
    "LABEL_NAMES",
    "FeatureExtractor",
]
