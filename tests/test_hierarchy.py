"""Hierarchical power management (Section 5.4)."""

import pytest

from repro.config import default_frequency_grid, small_config
from repro.core.objectives import EDnPObjective, ObjectiveContext, StaticObjective
from repro.core.sensitivity import LinearSensitivity
from repro.dvfs.designs import make_controller
from repro.dvfs.hierarchy import HierarchicalPowerManager, PowerManagedObjective
from repro.dvfs.simulation import DvfsSimulation
from repro.power.model import PowerModel
from repro.config import PowerConfig
from repro.workloads import build_workload, workload

GRID = default_frequency_grid()


def make_manager(budget=10.0, interval_ns=5_000.0):
    return HierarchicalPowerManager(GRID, power_budget=budget, interval_ns=interval_ns)


class TestManager:
    def test_starts_fully_open(self):
        m = make_manager()
        assert m.f_max_allowed == GRID[-1]

    def test_over_budget_narrows_window(self):
        m = make_manager(budget=5.0, interval_ns=2_000.0)
        m.observe_epoch(epoch_power=50.0, duration_ns=1_000.0)
        m.observe_epoch(epoch_power=50.0, duration_ns=1_000.0)
        assert m.f_max_allowed < GRID[-1]
        assert m.adjustments

    def test_under_budget_reopens(self):
        m = make_manager(budget=5.0, interval_ns=2_000.0)
        for _ in range(2):
            m.observe_epoch(50.0, 1_000.0)
        narrowed = m.f_max_allowed
        for _ in range(2):
            m.observe_epoch(0.1, 1_000.0)
        assert m.f_max_allowed > narrowed

    def test_never_below_f_min(self):
        m = make_manager(budget=0.001, interval_ns=1_000.0)
        for _ in range(50):
            m.observe_epoch(100.0, 1_000.0)
        assert m.f_max_allowed == GRID[0]

    def test_no_adjustment_within_interval(self):
        m = make_manager(budget=1.0, interval_ns=1e9)
        m.observe_epoch(100.0, 1_000.0)
        assert m.f_max_allowed == GRID[-1]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            HierarchicalPowerManager(GRID, power_budget=0.0)
        with pytest.raises(ValueError):
            HierarchicalPowerManager((), power_budget=1.0)
        with pytest.raises(ValueError):
            HierarchicalPowerManager(GRID, power_budget=1.0, interval_ns=0.0)


class TestManagedObjective:
    def _ctx(self):
        return ObjectiveContext(
            power=PowerModel(PowerConfig()),
            epoch_ns=1000.0,
            n_cus_in_domain=1,
            issue_width=2,
            memory_power_share=0.5,
        )

    def test_choice_clamped_to_window(self):
        m = make_manager(budget=1.0, interval_ns=1_000.0)
        for _ in range(6):  # slam the window down
            m.observe_epoch(100.0, 1_000.0)
        obj = PowerManagedObjective(StaticObjective(2.2), m)
        chosen = obj.choose(LinearSensitivity(0.0, 1000.0), GRID, 2.2, self._ctx())
        # StaticObjective wants 2.2 but the window no longer allows it;
        # the static inner returns its pin... the wrapper restricts the
        # grid, so the inner sees only low frequencies.
        assert chosen <= m.f_max_allowed or chosen == 2.2  # static pins
        ed = PowerManagedObjective(EDnPObjective(2), m)
        chosen2 = ed.choose(LinearSensitivity(0.0, 1000.0), GRID, 2.2, self._ctx())
        assert chosen2 <= m.f_max_allowed

    def test_name_decorated(self):
        m = make_manager()
        obj = PowerManagedObjective(EDnPObjective(2), m)
        assert "ED2P" in obj.name


class TestEndToEnd:
    def test_power_cap_respected_on_average(self):
        cfg = small_config(n_cus=2, waves_per_cu=4)
        kernels = build_workload(workload("hacc"), scale=0.15)
        # Uncapped run to discover the natural power level.
        ctrl = make_controller("PCSTALL", cfg)
        free = DvfsSimulation(list(kernels), ctrl, cfg, max_epochs=200).run()
        natural = free.energy.total / free.delay_ns

        budget = natural * 0.8
        manager = HierarchicalPowerManager(
            cfg.dvfs.frequencies_ghz, power_budget=budget, interval_ns=5_000.0
        )
        ctrl2 = make_controller("PCSTALL", cfg)
        ctrl2.objective = PowerManagedObjective(ctrl2.objective, manager)
        capped = DvfsSimulation(
            list(kernels), ctrl2, cfg, max_epochs=300, power_manager=manager
        ).run()
        capped_power = capped.energy.total / capped.delay_ns
        assert capped_power < natural
        assert manager.adjustments  # the outer loop actually acted
