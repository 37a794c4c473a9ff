"""Objectives: frequency selection under EDnP, performance caps, static."""

import pytest

from repro.config import PowerConfig, default_frequency_grid
from repro.core.objectives import (
    EDnPObjective,
    ObjectiveContext,
    PerformanceCapObjective,
    StaticObjective,
)
from repro.core.sensitivity import LinearSensitivity
from repro.power.model import PowerModel

GRID = default_frequency_grid()


@pytest.fixture
def ctx():
    return ObjectiveContext(
        power=PowerModel(PowerConfig()),
        epoch_ns=1000.0,
        n_cus_in_domain=1,
        issue_width=2,
        memory_power_share=0.5,
        reference_freq_ghz=1.7,
    )


def flat_line(commits=1000.0):
    """A fully memory-bound phase: commits do not react to frequency."""
    return LinearSensitivity(commits, 0.0)


def compute_line(ipc_slots=0.5):
    """A fully compute-bound phase: commits proportional to frequency."""
    # commits = slope * f with slope sized to a plausible occupancy.
    return LinearSensitivity(0.0, ipc_slots * 2 * 1000.0)


class TestStatic:
    def test_always_fixed(self, ctx):
        obj = StaticObjective(1.7)
        assert obj.choose(flat_line(), GRID, 2.2, ctx) == pytest.approx(1.7)
        assert obj.choose(None, GRID, 2.2, ctx) == pytest.approx(1.7)


class TestEDnP:
    def test_memory_bound_picks_min_frequency(self, ctx):
        obj = EDnPObjective(2)
        assert obj.choose(flat_line(), GRID, 1.7, ctx) == pytest.approx(GRID[0])

    def test_compute_bound_picks_high_frequency(self, ctx):
        obj = EDnPObjective(2)
        chosen = obj.choose(compute_line(), GRID, 1.7, ctx)
        assert chosen >= 1.7

    def test_edp_more_conservative_than_ed2p(self, ctx):
        line = compute_line()
        f_edp = EDnPObjective(1).choose(line, GRID, 1.7, ctx)
        f_ed2p = EDnPObjective(2).choose(line, GRID, 1.7, ctx)
        assert f_edp <= f_ed2p

    def test_none_prediction_holds_current(self, ctx):
        obj = EDnPObjective(2)
        assert obj.choose(None, GRID, 1.9, ctx) == pytest.approx(1.9)

    def test_mixed_phase_interior_choice(self, ctx):
        obj = EDnPObjective(2)
        mixed = LinearSensitivity(500.0, 300.0)
        chosen = obj.choose(mixed, GRID, 1.7, ctx)
        assert GRID[0] <= chosen <= GRID[-1]

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            EDnPObjective(-1)

    def test_rejects_bad_price_scale(self):
        with pytest.raises(ValueError):
            EDnPObjective(2, price_scale=0.0)

    def test_higher_price_scale_boosts_more(self, ctx):
        mixed = LinearSensitivity(400.0, 400.0)
        lo = EDnPObjective(2, price_scale=0.5).choose(mixed, GRID, 1.7, ctx)
        hi = EDnPObjective(2, price_scale=2.0).choose(mixed, GRID, 1.7, ctx)
        assert lo <= hi

    def test_names(self):
        assert EDnPObjective(1).name == "EDP"
        assert EDnPObjective(2).name == "ED2P"


class TestPerformanceCap:
    def test_memory_bound_drops_to_min_energy(self, ctx):
        obj = PerformanceCapObjective(0.05)
        # Flat line: every frequency meets the cap; lowest power wins.
        assert obj.choose(flat_line(), GRID, 1.7, ctx) == pytest.approx(GRID[0])

    def test_compute_bound_stays_near_max(self, ctx):
        obj = PerformanceCapObjective(0.05)
        chosen = obj.choose(compute_line(), GRID, 1.7, ctx)
        # Pure compute: commits drop linearly with f; 5% cap allows only
        # a small step down from 2.2.
        assert chosen >= 2.0

    def test_larger_cap_allows_lower_frequency(self, ctx):
        line = compute_line()
        f5 = PerformanceCapObjective(0.05).choose(line, GRID, 1.7, ctx)
        f10 = PerformanceCapObjective(0.10).choose(line, GRID, 1.7, ctx)
        assert f10 <= f5

    def test_none_prediction_runs_at_max(self, ctx):
        obj = PerformanceCapObjective(0.05)
        assert obj.choose(None, GRID, 1.3, ctx) == pytest.approx(GRID[-1])

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            PerformanceCapObjective(1.0)
        with pytest.raises(ValueError):
            PerformanceCapObjective(-0.1)


class TestObjectiveContext:
    def test_activity_bounded(self, ctx):
        f = 1.7
        n, share = ctx.n_cus_in_domain, ctx.memory_power_share
        slots = ctx.epoch_ns * f * ctx.issue_width * n
        full = ctx.domain_power(LinearSensitivity(slots, 0.0), f)
        assert full == ctx.power.cu_power(f, 1.0) * n + share
        # An over-predicting line prices like full issue occupancy ...
        assert ctx.domain_power(LinearSensitivity(1e9, 0.0), f) == full
        # ... and a zero line like idle activity.
        idle = ctx.power.cu_power(f, 0.0) * n + share
        assert ctx.domain_power(LinearSensitivity(0.0, 0.0), f) == idle

    def test_domain_power_includes_memory_share(self, ctx):
        p = ctx.domain_power(flat_line(0.0), 1.3)
        assert p > ctx.memory_power_share
