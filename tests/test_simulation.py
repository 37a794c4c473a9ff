"""End-to-end DVFS simulation runs."""

import pytest

from repro.config import small_config
from repro.core.objectives import EDnPObjective, PerformanceCapObjective
from repro.dvfs.designs import make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.runtime.executor import SweepTask, run_task
from repro.telemetry import EpochTraceRecorder, TelemetryConfig
from repro.validation.differential import diff_run_results

from helpers import make_loop_program


@pytest.fixture
def cfg():
    return small_config(n_cus=2, waves_per_cu=4)


def kernels(trips=1500, n=1):
    return [
        Kernel.homogeneous(
            make_loop_program(trips=trips, name=f"k{i}"), WorkgroupGeometry(4, 2)
        )
        for i in range(n)
    ]


def run(cfg, design, ks=None, **kw):
    ctrl = make_controller(design, cfg, EDnPObjective(2))
    sim = DvfsSimulation(ks or kernels(), ctrl, cfg, design_name=design,
                         max_epochs=300, oracle_sample_freqs=4, **kw)
    return sim.run()


class TestBasicRuns:
    def test_static_run_completes(self, cfg):
        r = run(cfg, "STATIC@1.7")
        assert r.epochs > 0
        assert r.delay_ns > 0
        assert r.energy.total > 0
        assert r.total_committed > 0

    def test_metrics_consistent(self, cfg):
        r = run(cfg, "STATIC@1.7")
        assert r.edp == pytest.approx(r.energy.total * r.delay_ns)
        assert r.ed2p == pytest.approx(r.energy.total * r.delay_ns**2)
        assert r.ednp(3) == pytest.approx(r.energy.total * r.delay_ns**3)

    def test_every_design_runs(self, cfg):
        for design in ("STALL", "CRISP", "ACCREAC", "PCSTALL", "ACCPC", "ORACLE"):
            r = run(cfg, design)
            assert r.epochs > 0, design

    def test_multi_kernel_workload(self, cfg):
        single = run(cfg, "STATIC@1.7", ks=kernels(n=1))
        double = run(cfg, "STATIC@1.7", ks=kernels(n=2))
        assert double.epochs > single.epochs

    def test_empty_kernel_list_rejected(self, cfg):
        with pytest.raises(ValueError):
            DvfsSimulation([], make_controller("STALL", cfg), cfg)

    def test_max_epochs_caps_run(self, cfg):
        ctrl = make_controller("STATIC@1.7", cfg)
        with pytest.warns(RuntimeWarning, match="truncated"):
            r = DvfsSimulation(kernels(trips=100_000), ctrl, cfg, max_epochs=5).run()
        assert r.epochs == 5


class TestCompletionSemantics:
    def test_completed_run_flagged_and_uses_retire_time(self, cfg):
        r = run(cfg, "STATIC@1.7")
        assert r.completed is True
        # Delay is the last retirement, which the final (partial) epoch
        # overshoots: it must be positive and within the epoch grid span.
        assert 0.0 < r.delay_ns <= r.epochs * cfg.dvfs.epoch_ns

    def test_truncated_run_flagged_with_window_delay(self, cfg):
        ctrl = make_controller("STATIC@1.7", cfg)
        with pytest.warns(RuntimeWarning, match="truncated"):
            r = DvfsSimulation(kernels(trips=100_000), ctrl, cfg, max_epochs=7).run()
        assert r.completed is False
        # A truncated run's delay is exactly the simulated window.
        assert r.delay_ns == pytest.approx(7 * cfg.dvfs.epoch_ns)

    def test_truncation_between_kernels_still_flagged(self, cfg):
        # max_epochs lands after kernel 1 finishes but before kernel 2
        # is dispatched & drained - still an incomplete workload.
        ctrl = make_controller("STATIC@1.7", cfg)
        probe = DvfsSimulation(kernels(n=1), ctrl, cfg, max_epochs=300).run()
        ctrl2 = make_controller("STATIC@1.7", cfg)
        with pytest.warns(RuntimeWarning, match="truncated"):
            r = DvfsSimulation(
                kernels(n=2), ctrl2, cfg, max_epochs=probe.epochs
            ).run()
        assert r.completed is False

    def test_completed_run_emits_no_warning(self, cfg, recwarn):
        run(cfg, "STATIC@1.7")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestAccuracyTracking:
    def test_static_has_no_accuracy(self, cfg):
        assert run(cfg, "STATIC@1.7").prediction_accuracy is None

    def test_dynamic_designs_scored(self, cfg):
        for design in ("STALL", "PCSTALL"):
            acc = run(cfg, design).prediction_accuracy
            assert acc is not None
            assert 0.0 <= acc <= 1.0

    def test_oracle_accuracy_near_perfect(self, cfg):
        acc = run(cfg, "ORACLE").prediction_accuracy
        assert acc > 0.9

    def test_pc_hit_ratio_reported_for_pc_designs(self, cfg):
        assert run(cfg, "PCSTALL").pc_hit_ratio is not None
        assert run(cfg, "STALL").pc_hit_ratio is None


class TestResidencyAndTransitions:
    def test_residency_sums_to_one(self, cfg):
        r = run(cfg, "CRISP")
        assert sum(r.frequency_residency.values()) == pytest.approx(1.0)

    def test_static_never_transitions_after_start(self, cfg):
        r = run(cfg, "STATIC@1.7")
        # reference == 1.7, so not even an initial transition.
        assert r.total_transitions == 0

    def test_dynamic_design_transitions(self, cfg):
        r = run(cfg, "CRISP")
        assert r.total_transitions > 0


class TestObjectives:
    def test_performance_cap_objective_runs(self, cfg):
        ctrl = make_controller("PCSTALL", cfg, PerformanceCapObjective(0.05))
        r = DvfsSimulation(kernels(), ctrl, cfg, max_epochs=300).run()
        assert r.epochs > 0

    def test_cap_energy_below_max_frequency_static(self, cfg):
        capped = DvfsSimulation(
            kernels(), make_controller("PCSTALL", cfg, PerformanceCapObjective(0.10)),
            cfg, max_epochs=300,
        ).run()
        top = DvfsSimulation(
            kernels(), make_controller("STATIC@2.2", cfg), cfg, max_epochs=300
        ).run()
        assert capped.energy.total < top.energy.total


class TestOracleLifecycle:
    def test_hotpath_counters_on_result(self, cfg):
        r = run(cfg, "ORACLE")
        hp = r.hotpath
        assert hp is not None
        assert hp["cycles"] > 0
        assert hp["waves_scanned"] > 0
        assert hp["oracle_samples"] == r.epochs
        assert hp["snapshots"] == r.epochs  # one capture per oracle fork
        assert hp["clone_bytes"] == 0  # scratch restores, no deep clones


class TestTruthOnDemand:
    """The oracle pre-executes an epoch only when something reads the
    sample: a design fed truth, or a recorder asked to record it."""

    UNFED = ("STATIC@1.7", "STALL", "LEAD", "CRIT", "CRISP", "PCSTALL", "PCCRISP",
             "HISTORY")
    FED = ("ACCREAC", "ACCPC", "ORACLE")

    @staticmethod
    def cell(design):
        return SweepTask("dgemm", design, small_config(n_cus=2, waves_per_cu=4),
                         scale=0.12, max_epochs=60, oracle_sample_freqs=3,
                         collect_accuracy=True)

    @staticmethod
    def recorded(task):
        with EpochTraceRecorder(TelemetryConfig()) as rec:
            return run_task(task, recorder=rec)

    @pytest.mark.parametrize("design", UNFED)
    def test_unread_truth_is_not_sampled(self, design):
        task = self.cell(design)
        plain = run_task(task)
        assert plain.hotpath["oracle_samples"] == plain.hotpath["snapshots"] == 0
        recorded = self.recorded(task)
        assert recorded.hotpath["oracle_samples"] == recorded.epochs
        assert diff_run_results(plain, recorded) == []

    @pytest.mark.parametrize("design", FED)
    def test_fed_designs_sample_every_epoch(self, design):
        task = self.cell(design)
        plain, recorded = run_task(task), self.recorded(task)
        for result in (plain, recorded):
            assert result.hotpath["oracle_samples"] == result.epochs
        assert diff_run_results(plain, recorded) == []


class TestDeterminism:
    def test_same_run_reproduces(self, cfg):
        a = run(cfg, "PCSTALL")
        b = run(cfg, "PCSTALL")
        assert a.ed2p == pytest.approx(b.ed2p)
        assert a.epochs == b.epochs
        assert a.total_committed == b.total_committed
