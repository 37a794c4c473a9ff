"""Objective functions mapping a predicted sensitivity line to a frequency.

The prediction mechanism is objective-agnostic (Section 5.2): it yields
``I(f)`` for the next epoch; the objective then scores every V/f state
and picks the winner. Implemented objectives:

* :class:`EDnPObjective` - minimise Energy * Delay^n per unit of work;
  n=1 is EDP (battery-bound), n=2 is ED2P (server-bound).
* :class:`PerformanceCapObjective` - minimise energy subject to a bound
  on predicted performance loss versus the maximum frequency
  (Section 6.4's 5%/10% degradation limits).
* :class:`StaticObjective` - a fixed frequency (the paper's static
  baselines at 1.3/1.7/2.2 GHz).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sensitivity import LinearSensitivity
from repro.power.model import POWER_MEMO_MAX_FREQS, PowerModel


@dataclass(frozen=True)
class ObjectiveContext:
    """Platform facts an objective needs to score a frequency."""

    power: PowerModel
    epoch_ns: float
    n_cus_in_domain: int
    issue_width: int
    #: This domain's share of the constant memory-subsystem power.
    memory_power_share: float
    #: The static reference frequency (normalisation baseline).
    reference_freq_ghz: float = 1.7
    #: f -> (issue slots, *PowerModel.terms(f)) for :meth:`score_grid`.
    _points: Dict[float, Tuple[float, float, float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def predicted_activity(self, line: LinearSensitivity, f_ghz: float, commits=None) -> float:
        """Issue occupancy implied by the predicted commit count."""
        slots = self.epoch_ns * f_ghz * self.issue_width * self.n_cus_in_domain
        if slots <= 0:
            return 0.0
        return min(1.0, (line.predict(f_ghz) if commits is None else commits) / slots)

    def _point(self, f_ghz: float) -> Tuple[float, float, float, float]:
        """The per-frequency constants :meth:`score_grid` reads, memoised
        by frequency (a fresh grid object per call still hits)."""
        point = (self.epoch_ns * f_ghz * self.issue_width * self.n_cus_in_domain,
                 *self.power.terms(f_ghz))
        if len(self._points) < POWER_MEMO_MAX_FREQS:
            self._points[f_ghz] = point
        return point

    def score_grid(
        self, line: LinearSensitivity, freq_grid: Sequence[float]
    ) -> List[Tuple[float, float, float]]:
        """``(f, predicted commits, domain power)`` at every grid point.

        One pass over flat numbers: ``line.predict``, the activity of
        :meth:`predicted_activity` and ``PowerModel.cu_power``'s
        arithmetic, inlined in their order, so every value is
        bit-identical to the per-point calls. ``cu_power``'s clamp of
        the activity to [0, 1] is left out: the activity is already
        ``min(1.0, commits / slots)`` with commits >= 0, or 0.0.
        """
        i0 = line.i0
        slope = line.slope
        n = self.n_cus_in_domain
        share = self.memory_power_share
        idle = self.power.config.idle_activity
        busy = 1.0 - idle
        points = self._points
        rows = []
        for f in freq_grid:
            point = points.get(f)
            if point is None:
                point = self._point(f)
            slots, cvv, leakage, efficiency = point
            commits = i0 + slope * f
            if commits <= 0.0:
                commits = 0.0
            if slots <= 0:
                activity = 0.0
            else:
                activity = commits / slots
                if not activity < 1.0:  # min(1.0, x): NaN reads as 1.0
                    activity = 1.0
            a = idle + busy * activity
            rows.append((f, commits, (cvv * a * f + leakage) / efficiency * n + share))
        return rows

    def domain_power(self, line: LinearSensitivity, f_ghz: float, commits=None) -> float:
        """Predicted wall power of the whole domain at ``f_ghz``: the
        one-point form of :meth:`score_grid`. ``commits`` is accepted for
        callers written against the two-step form; it can only be
        ``line.predict(f_ghz)``, which the scorer computes itself."""
        return self.score_grid(line, (f_ghz,))[0][2]


class Objective(abc.ABC):
    """Chooses the operating frequency for the next epoch of one domain."""

    name: str = "abstract"

    @abc.abstractmethod
    def choose(
        self,
        line: Optional[LinearSensitivity],
        freq_grid: Sequence[float],
        current_f: float,
        ctx: ObjectiveContext,
        domain: int = 0,
    ) -> float:
        """Frequency for the next epoch. ``line`` may be None (no
        prediction yet) in which case implementations should hold."""


class StaticObjective(Objective):
    """Always run at a fixed frequency."""

    def __init__(self, f_ghz: float) -> None:
        self.f_ghz = f_ghz
        self.name = f"STATIC@{f_ghz:.1f}GHz"

    def choose(self, line, freq_grid, current_f, ctx, domain=0):
        return self.f_ghz


class EDnPObjective(Objective):
    """Minimise predicted ED^nP via marginal work pricing.

    Control is fixed-time-epoch (Section 3.1): the knob changes how much
    *work* ``I(f)`` the next epoch completes, at power ``P(f)``. For a
    run of total work ``W``, energy ``E`` and delay ``D``, perturbing
    one epoch's frequency changes ``E`` by ``t*dP`` minus the tail
    energy saved by finishing earlier, and ``D`` by ``-dI/R`` where
    ``R = W/D`` is the average work rate. Setting ``d(E*D^n) = 0`` gives
    the per-epoch rule: minimise

        ``cost(f) = P(f) - (n+1) * (P_avg / I_avg) * I(f)``

    i.e. each unit of work is worth ``(n+1)`` times the run's average
    energy-per-work. Ratio-form greedies (``P/I^(n+1)``) overshoot both
    frequency extremes; this linear pricing makes a perfectly informed
    predictor (ORACLE) actually minimise the global metric.

    The exchange rate is *anchored at the reference frequency*: each
    epoch prices work at ``(n+1) * P(f_ref) / I(f_ref)`` using its own
    predicted line. A self-referential rate (the policy's achieved
    average) admits multiple fixed points - boosting raises the achieved
    power, which raises the price, which justifies more boosting - so
    the policy-independent anchor keeps the controller at the fixed
    point near the static baseline, matching how the paper's
    hierarchical power manager constrains the hardware loop (Section
    5.4).
    """

    def __init__(self, n: int = 2, price_scale: float = 1.0) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        if price_scale <= 0:
            raise ValueError("price_scale must be positive")
        self.n = n
        self.price_scale = price_scale
        self.name = f"ED{n}P" if n != 1 else "EDP"

    def _work_price(
        self,
        line: LinearSensitivity,
        ctx: ObjectiveContext,
        rows: Sequence[Tuple[float, float, float]] = (),
    ) -> float:
        """Power-per-work exchange rate, anchored at the reference.

        ``price_scale`` is a platform calibration constant (the anchor
        approximates the optimum's Lagrange multiplier only to first
        order); 1.0 works well for the default power model. The anchor
        is the ``reference_freq_ghz`` row of ``rows`` when the scored
        grid holds it, else the one-point score.
        """
        f_ref = ctx.reference_freq_ghz
        for f, commits_ref, p_ref in rows:
            if f == f_ref:
                break
        else:
            ((_, commits_ref, p_ref),) = ctx.score_grid(line, (f_ref,))
        i_ref = max(commits_ref, 1.0)
        return self.price_scale * (self.n + 1) * p_ref / i_ref

    def choose(self, line, freq_grid, current_f, ctx, domain=0):
        if line is None:
            return current_f
        rows = ctx.score_grid(line, freq_grid)
        price = self._work_price(line, ctx, rows)
        best_f = current_f
        best_cost = float("inf")
        for f, commits, power in rows:
            cost = power - price * commits
            if cost < best_cost:
                best_cost = cost
                best_f = f
        return best_f


class PerformanceCapObjective(Objective):
    """Minimise energy subject to a predicted performance-loss cap.

    Keeps only frequencies whose predicted commits stay within
    ``(1 - max_degradation)`` of the predicted commits at the top
    frequency, then picks the one with the lowest predicted power
    (energy, since the epoch length is fixed).
    """

    def __init__(self, max_degradation: float) -> None:
        if not 0.0 <= max_degradation < 1.0:
            raise ValueError("max_degradation must be in [0, 1)")
        self.max_degradation = max_degradation
        self.name = f"ENERGY@{max_degradation:.0%}"

    def choose(self, line, freq_grid, current_f, ctx, domain=0):
        if line is None:
            return freq_grid[-1]
        rows = ctx.score_grid(line, freq_grid)
        f_max, commits_max, _ = rows[-1]
        required = (1.0 - self.max_degradation) * commits_max
        best_f = f_max
        best_power = float("inf")
        for f, commits, power in rows:
            if commits + 1e-9 < required:
                continue
            if power < best_power:
                best_power = power
                best_f = f
        return best_f


class QoSDeadlineObjective(Objective):
    """Meet a work-rate deadline at minimum energy (Section 5.2's
    quality-of-service extension).

    The job owner specifies a target instruction rate (per domain, in
    instructions per epoch); the objective picks the cheapest frequency
    whose predicted commits meet it, or the top frequency when the
    target is unreachable (best effort).
    """

    def __init__(self, target_commits_per_epoch: float) -> None:
        if target_commits_per_epoch <= 0:
            raise ValueError("target must be positive")
        self.target = target_commits_per_epoch
        self.name = f"QOS@{target_commits_per_epoch:.0f}"

    def choose(self, line, freq_grid, current_f, ctx, domain=0):
        if line is None:
            return freq_grid[-1]
        best_f = None
        best_power = float("inf")
        for f, commits, power in ctx.score_grid(line, freq_grid):
            if commits + 1e-9 < self.target:
                continue
            if power < best_power:
                best_power = power
                best_f = f
        return best_f if best_f is not None else freq_grid[-1]


__all__ = [
    "Objective",
    "ObjectiveContext",
    "StaticObjective",
    "EDnPObjective",
    "PerformanceCapObjective",
    "QoSDeadlineObjective",
]
