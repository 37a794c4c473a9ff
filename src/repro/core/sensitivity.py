"""The frequency-sensitivity metric (Section 3.2).

Instructions committed in a fixed-time epoch are approximately linear in
the operating frequency over the DVFS range (Figure 5)::

    I_f = I0 + S * f

``S`` - the *sensitivity* - is the increase in instruction throughput per
unit frequency, and quantifies the phase: high S = compute-intensive,
low S = memory-bound. Sensitivity is commutative (Section 4.2): the
sensitivity of a V/f domain is the sum of its CUs', which is the sum of
their wavefronts'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple


@dataclass(frozen=True)
class LinearSensitivity:
    """The linear phase model ``I(f) = i0 + slope * f``.

    ``slope`` is the sensitivity ``S`` (instructions per GHz for the
    epoch duration it was measured over); ``i0`` the frequency-independent
    instruction base.
    """

    i0: float
    slope: float

    def predict(self, f_ghz: float) -> float:
        """Predicted instructions committed at ``f_ghz`` (floored at 0).

        A NaN line predicts NaN, not 0 (``max(0.0, nan)`` is ``0.0``):
        callers must see a broken line, not "zero commits".
        """
        v = self.i0 + self.slope * f_ghz
        return 0.0 if v <= 0.0 else v

    def __add__(self, other: "LinearSensitivity") -> "LinearSensitivity":
        return LinearSensitivity(self.i0 + other.i0, self.slope + other.slope)

    @staticmethod
    def zero() -> "LinearSensitivity":
        return LinearSensitivity(0.0, 0.0)

    @staticmethod
    def from_two_points(f1: float, i1: float, f2: float, i2: float) -> "LinearSensitivity":
        """Exact line through two (frequency, instructions) samples."""
        if f1 == f2:
            raise ValueError("need two distinct frequencies")
        slope = (i2 - i1) / (f2 - f1)
        return LinearSensitivity(i1 - slope * f1, slope)


def aggregate(parts: Iterable[LinearSensitivity]) -> LinearSensitivity:
    """Sum of sensitivities: wavefronts -> CU -> V/f domain (Section 4.2)."""
    total = LinearSensitivity.zero()
    for p in parts:
        total = total + p
    return total


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit of I(f) samples, with goodness-of-fit."""

    model: LinearSensitivity
    r_squared: float
    n_points: int


def fit_linear(freqs_ghz: Sequence[float], instructions: Sequence[float]) -> LinearFit:
    """Least-squares line through (frequency, instructions) samples.

    Used both by the oracle (to extract the *true* sensitivity from the
    fork-and-pre-execute samples) and by the Figure 5 linearity study.
    """
    if len(freqs_ghz) != len(instructions):
        raise ValueError("freqs and instructions must have equal length")
    n = len(freqs_ghz)
    if n < 2:
        raise ValueError("need at least two samples to fit a line")
    mean_f = sum(freqs_ghz) / n
    mean_i = sum(instructions) / n
    sxx = sum((f - mean_f) ** 2 for f in freqs_ghz)
    if sxx == 0:
        raise ValueError("need at least two distinct frequencies")
    sxy = sum((f - mean_f) * (i - mean_i) for f, i in zip(freqs_ghz, instructions))
    slope = sxy / sxx
    i0 = mean_i - slope * mean_f

    ss_tot = sum((i - mean_i) ** 2 for i in instructions)
    ss_res = sum(
        (i - (i0 + slope * f)) ** 2 for f, i in zip(freqs_ghz, instructions)
    )
    if ss_tot <= 1e-12:
        # A flat response is perfectly explained by a flat line.
        r2 = 1.0 if ss_res <= 1e-9 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return LinearFit(LinearSensitivity(i0, slope), r2, n)


def relative_change(prev: float, curr: float, floor: float = 1e-9) -> float:
    """|curr - prev| / max(|prev|, |curr|, floor) - the paper's
    'relative change in sensitivity' between epochs (Figures 7 and 10)."""
    denom = max(abs(prev), abs(curr), floor)
    return abs(curr - prev) / denom


def mean_relative_change(series: Sequence[float]) -> float:
    """Average relative change across consecutive values of a series."""
    if len(series) < 2:
        return 0.0
    changes = [relative_change(a, b) for a, b in zip(series, series[1:])]
    return sum(changes) / len(changes)


def weighted_relative_change(
    series_list: Iterable[Sequence[float]], floor: float = 0.0
) -> float:
    """Magnitude-weighted mean relative change across many series.

    Each consecutive pair contributes ``|b - a|`` against a weight of
    ``max(|a|, |b|, floor)``, i.e. pairs are weighted by their
    sensitivity magnitude. This keeps near-zero sensitivities (fully
    memory-bound stretches) from dominating the average through tiny
    denominators - the robust reading of the paper's "average relative
    change" (Figures 7, 10, 11).

    ``floor`` expresses the smallest *meaningful* sensitivity on the
    platform (a small fraction of the achievable commit slope): jitter
    between sensitivities far below it measures measurement noise, not
    phase change, and is weighted accordingly.
    """
    num = 0.0
    den = 0.0
    for series in series_list:
        for a, b in zip(series, series[1:]):
            w = max(abs(a), abs(b), floor)
            if w <= 0.0:
                continue
            num += abs(b - a)
            den += w
    return num / den if den else 0.0


__all__ = [
    "LinearSensitivity",
    "LinearFit",
    "fit_linear",
    "aggregate",
    "relative_change",
    "mean_relative_change",
    "weighted_relative_change",
]
