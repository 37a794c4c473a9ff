"""Sensitivity metric: linear model, fitting, aggregation, change metrics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sensitivity import (
    LinearSensitivity,
    aggregate,
    fit_linear,
    weighted_relative_change,
)


class TestLinearSensitivity:
    def test_predict(self):
        line = LinearSensitivity(i0=100.0, slope=50.0)
        assert line.predict(2.0) == pytest.approx(200.0)

    def test_predict_floors_at_zero(self):
        line = LinearSensitivity(i0=-500.0, slope=10.0)
        assert line.predict(1.0) == 0.0

    @settings(derandomize=True, database=None, max_examples=300)
    @given(
        i0=st.floats(allow_nan=False),
        slope=st.floats(allow_nan=False),
        f=st.floats(allow_nan=False),
    )
    def test_predict_matches_the_max_floor_except_on_nan(self, i0, slope, f):
        """``predict`` equals ``max(0.0, v)`` bit for bit (signed zeros and
        infinities included) wherever ``v`` is a number, and passes a NaN
        (``inf - inf``, ``0 * inf``) through instead of reading it as 0."""
        v = i0 + slope * f
        got = LinearSensitivity(i0, slope).predict(f)
        if math.isnan(v):
            assert math.isnan(got)
        else:
            want = max(0.0, v)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("i0, slope", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, -math.inf), (math.inf, math.nan),
    ])
    def test_nan_line_predicts_nan(self, i0, slope):
        assert math.isnan(LinearSensitivity(i0, slope).predict(1.7))

    def test_addition_is_commutative_aggregation(self):
        a = LinearSensitivity(10.0, 5.0)
        b = LinearSensitivity(20.0, 1.0)
        s = a + b
        assert s.i0 == pytest.approx(30.0)
        assert s.slope == pytest.approx(6.0)

    def test_from_two_points(self):
        line = LinearSensitivity.from_two_points(1.0, 100.0, 2.0, 180.0)
        assert line.slope == pytest.approx(80.0)
        assert line.predict(1.5) == pytest.approx(140.0)

    def test_from_two_points_rejects_equal_freqs(self):
        with pytest.raises(ValueError):
            LinearSensitivity.from_two_points(1.0, 10.0, 1.0, 20.0)

    def test_zero(self):
        z = LinearSensitivity.zero()
        assert z.predict(2.2) == 0.0


class TestAggregate:
    def test_sums_parts(self):
        parts = [LinearSensitivity(1.0, 2.0)] * 5
        total = aggregate(parts)
        assert total.i0 == pytest.approx(5.0)
        assert total.slope == pytest.approx(10.0)

    def test_empty_is_zero(self):
        assert aggregate([]).slope == 0.0


class TestFitLinear:
    def test_exact_line_recovered(self):
        freqs = [1.3, 1.6, 1.9, 2.2]
        insts = [10 + 5 * f for f in freqs]
        fit = fit_linear(freqs, insts)
        assert fit.model.slope == pytest.approx(5.0)
        assert fit.model.i0 == pytest.approx(10.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_flat_data_r2_is_one(self):
        fit = fit_linear([1.3, 1.7, 2.2], [100.0, 100.0, 100.0])
        assert fit.model.slope == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_data_r2_below_one(self):
        fit = fit_linear([1.0, 2.0, 3.0, 4.0], [1.0, 5.0, 2.0, 8.0])
        assert 0.0 < fit.r_squared < 1.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_linear([1.0], [1.0, 2.0])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            fit_linear([1.0], [1.0])

    def test_rejects_degenerate_freqs(self):
        with pytest.raises(ValueError):
            fit_linear([1.5, 1.5], [1.0, 2.0])

    @given(
        slope=st.floats(-100, 100),
        i0=st.floats(-100, 100),
    )
    def test_property_recovers_any_line(self, slope, i0):
        freqs = [1.3, 1.5, 1.7, 1.9, 2.1]
        insts = [i0 + slope * f for f in freqs]
        fit = fit_linear(freqs, insts)
        assert fit.model.slope == pytest.approx(slope, abs=1e-6)
        assert fit.model.i0 == pytest.approx(i0, abs=1e-6)


class TestChangeMetrics:
    def test_weighted_change_downweights_tiny_pairs(self):
        # A 0->1 flip (tiny magnitude) alongside a stable 1000-series:
        # the tiny pair must not dominate the average.
        assert weighted_relative_change([[0.0, 1.0], [1000.0, 1000.0]]) < 0.01

    def test_weighted_change_constant_is_zero(self):
        assert weighted_relative_change([[5.0] * 10]) == pytest.approx(0.0)

    def test_weighted_change_alternating_is_high(self):
        assert weighted_relative_change([[100.0, 0.0] * 5]) == pytest.approx(1.0)

    @given(st.lists(st.floats(0.1, 1e6), min_size=2, max_size=30))
    def test_weighted_change_bounded(self, series):
        v = weighted_relative_change([series])
        assert 0.0 <= v <= 2.0

    @given(st.lists(st.floats(0.1, 1e6), min_size=2, max_size=30), st.floats(0.1, 100))
    def test_weighted_change_scale_invariant(self, series, k):
        a = weighted_relative_change([series])
        b = weighted_relative_change([[x * k for x in series]])
        assert a == pytest.approx(b, rel=1e-6)
