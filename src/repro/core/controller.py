"""The per-domain DVFS manager (Section 5): predict -> select -> apply.

At every epoch boundary the controller feeds the elapsed epoch to its
predictor, asks it for next-epoch sensitivity lines, and lets the
objective choose each domain's frequency. It also keeps the bookkeeping
the evaluation needs: the last predictions (for the accuracy metric) and
per-frequency residency (Figure 16).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, MutableSequence, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.estimators import StallModel
from repro.core.objectives import Objective, ObjectiveContext
from repro.core.predictors import ObserveContext, Predictor, ReactivePredictor
from repro.core.sensitivity import LinearSensitivity
from repro.gpu.gpu import EpochResult
from repro.power.model import PowerModel


#: Frequency matching tolerances for snapping a chosen frequency onto
#: the V/f grid (mirrors :attr:`~repro.dvfs.oracle.OracleSample`'s
#: ``commits_at`` tolerances): the grid is 100 MHz-spaced, so 1 kHz
#: absolute slack absorbs float noise from unit conversion or grid
#: regeneration without ever bridging two distinct grid points.
FREQ_ABS_TOL_GHZ = 1e-6
FREQ_REL_TOL = 1e-9


@dataclass
class ControllerLog:
    """What the controller believed and chose, per epoch."""

    chosen_freqs: MutableSequence[List[float]] = field(default_factory=list)
    predictions: MutableSequence[List[Optional[LinearSensitivity]]] = field(default_factory=list)

    @classmethod
    def latest_only(cls) -> "ControllerLog":
        """A log of the latest epoch alone (a served session's history)."""
        return cls(deque(maxlen=1), deque(maxlen=1))

    def frequency_residency(self, freq_grid: Sequence[float]) -> Dict[float, float]:
        """Fraction of (domain, epoch) decisions spent at each frequency.

        Chosen frequencies are snapped to the nearest grid frequency
        within :data:`FREQ_ABS_TOL_GHZ` before counting, so a chosen
        value that picked up float noise (e.g. round-tripped through a
        wire format) still lands in its grid bucket instead of being
        counted in the total but dropped from the returned dict - that
        exact-``==`` hashing bug made Fig. 16 residency fractions
        silently sum to < 1. A frequency that matches *no* grid point
        is a logic error upstream and raises.
        """
        grid = list(freq_grid)
        counts = {f: 0 for f in grid}
        total = 0
        for epoch in self.chosen_freqs:
            for f in epoch:
                if f in counts:  # exact hit: the common, noise-free path
                    counts[f] += 1
                else:
                    counts[_snap_to_grid(f, grid)] += 1
                total += 1
        if not total:
            return {f: 0.0 for f in grid}
        return {f: counts[f] / total for f in grid}


def _snap_to_grid(f: float, grid: Sequence[float]) -> float:
    """The grid frequency ``f`` really is, or raise if truly off-grid."""
    for g in grid:
        if math.isclose(f, g, rel_tol=FREQ_REL_TOL, abs_tol=FREQ_ABS_TOL_GHZ):
            return g
    raise ValueError(
        f"chosen frequency {f!r} GHz matches no grid frequency "
        f"(grid: {list(grid)!r}); the objective must pick from the grid"
    )


def _finite(line: LinearSensitivity) -> bool:
    return math.isfinite(line.i0) and math.isfinite(line.slope)


class DvfsController:
    """Drives one predictor + objective over all V/f domains."""

    def __init__(
        self,
        predictor: Predictor,
        objective: Objective,
        sim_config: SimConfig,
        power_model: Optional[PowerModel] = None,
    ) -> None:
        self.predictor = predictor
        self.objective = objective
        self.config = sim_config
        self.power = power_model or PowerModel(sim_config.power)
        self.log = ControllerLog()
        n_domains = sim_config.gpu.n_domains
        mem_power = self.power.memory_power(sim_config.gpu.memory.n_l2_banks)
        self._ctx = ObjectiveContext(
            power=self.power,
            epoch_ns=sim_config.dvfs.epoch_ns,
            n_cus_in_domain=sim_config.gpu.cus_per_domain,
            issue_width=sim_config.gpu.issue_width,
            memory_power_share=mem_power / n_domains,
            reference_freq_ghz=sim_config.dvfs.reference_freq_ghz,
        )
        self._current: List[float] = [sim_config.dvfs.reference_freq_ghz] * n_domains
        #: The last observed epoch, for the STALL fallback in decide().
        self._last_observed: Optional[Tuple[EpochResult, ObserveContext]] = None
        #: Predicted lines decide() replaced because i0 or slope was not finite.
        self.non_finite_fallbacks = 0

    # ------------------------------------------------------------------

    def observe(
        self,
        result: EpochResult,
        true_domain_lines: Optional[List[LinearSensitivity]] = None,
    ) -> None:
        """Digest the elapsed epoch (runs the predictor's update path)."""
        ctx = ObserveContext(
            config=self.config.gpu,
            f_lo_ghz=self.config.dvfs.f_min,
            f_hi_ghz=self.config.dvfs.f_max,
            true_domain_lines=true_domain_lines,
        )
        self.predictor.observe(result, ctx)
        self._last_observed = (result, ctx)

    def decide(self) -> List[float]:
        """Frequencies for the next epoch, one per domain.

        A predicted line whose ``i0`` or ``slope`` is not finite never
        reaches the objective, where ``predict`` would floor NaN to zero
        commits. It is replaced by the STALL estimate of the domain's
        last observed epoch; when there is none, or it is not finite
        either, the domain holds its frequency. Each replacement counts
        in :attr:`non_finite_fallbacks`, and the log records the line
        that was used.
        """
        predictions = list(self.predictor.predict_domains())
        grid = self.config.dvfs.frequencies_ghz
        chosen: List[float] = []
        for d, line in enumerate(predictions):
            if line is not None and not _finite(line):
                self.non_finite_fallbacks += 1
                line = predictions[d] = self._stall_line(d)
                if line is None:
                    chosen.append(self._current[d])
                    continue
            f = self.objective.choose(line, grid, self._current[d], self._ctx, domain=d)
            chosen.append(f)
        self._current = chosen
        self.log.chosen_freqs.append(list(chosen))
        self.log.predictions.append(predictions)
        return chosen

    def _stall_line(self, domain: int) -> Optional[LinearSensitivity]:
        """The STALL design's line for ``domain`` from the last observed
        epoch; None when nothing was observed or the line is not finite."""
        if self._last_observed is None:
            return None
        stall = ReactivePredictor(StallModel(), self.config.gpu)
        stall.observe(*self._last_observed)
        line = stall.predict_domains()[domain]
        if line is None or not _finite(line):
            return None
        return line

    def choose_for(
        self,
        line: Optional[LinearSensitivity],
        domain: int,
        current_f: Optional[float] = None,
    ) -> float:
        """Frequency the objective would pick for ``line``, statelessly.

        Telemetry uses this to score decisions against the oracle: feed
        it the oracle's *true* sensitivity line (and the frequency that
        was current when the real decision was made) and the result is
        the oracle-best choice under the same objective. Neither the
        controller's log nor its current frequencies change.
        """
        f0 = current_f if current_f is not None else self._current[domain]
        return self.objective.choose(
            line, self.config.dvfs.frequencies_ghz, f0, self._ctx, domain=domain
        )

    @property
    def current_frequencies(self) -> List[float]:
        return list(self._current)

    def last_predictions(self) -> List[Optional[LinearSensitivity]]:
        if not self.log.predictions:
            return [None] * self.config.gpu.n_domains
        return self.log.predictions[-1]


__all__ = ["DvfsController", "ControllerLog"]
