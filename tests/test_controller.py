"""DVFS controller: decide/observe flow, logs, residency."""

import pytest

from repro.config import small_config
from repro.core.controller import ControllerLog, DvfsController
from repro.core.objectives import StaticObjective
from repro.core.predictors import StaticPredictor
from repro.core.sensitivity import LinearSensitivity
from repro.dvfs.designs import make_controller
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry

from helpers import make_loop_program


@pytest.fixture
def cfg():
    return small_config(n_cus=2, waves_per_cu=4)


def run_gpu_epoch(cfg, freq=1.7):
    gpu = Gpu(cfg.gpu, freq)
    gpu.load_kernel(
        Kernel.homogeneous(make_loop_program(trips=2000), WorkgroupGeometry(4, 2))
    )
    return gpu, gpu.run_epoch(1000.0)


class TestDecide:
    def test_first_decision_holds_reference(self, cfg):
        ctrl = make_controller("PCSTALL", cfg)
        freqs = ctrl.decide()
        assert freqs == [cfg.dvfs.reference_freq_ghz] * cfg.gpu.n_domains

    def test_static_controller_pins_frequency(self, cfg):
        ctrl = make_controller("STATIC@1.3", cfg)
        for _ in range(3):
            assert ctrl.decide() == [1.3, 1.3]

    def test_decisions_logged(self, cfg):
        ctrl = make_controller("STATIC@1.7", cfg)
        ctrl.decide()
        ctrl.decide()
        assert len(ctrl.log.chosen_freqs) == 2
        assert len(ctrl.log.predictions) == 2

    def test_decide_after_observe_uses_predictions(self, cfg):
        gpu, result = run_gpu_epoch(cfg)
        ctrl = make_controller("STALL", cfg)
        ctrl.decide()
        ctrl.observe(result)
        freqs = ctrl.decide()
        assert all(f in cfg.dvfs.frequencies_ghz for f in freqs)
        assert all(line is not None for line in ctrl.last_predictions())


class TestResidency:
    def test_residency_sums_to_one(self, cfg):
        ctrl = make_controller("STATIC@1.3", cfg)
        for _ in range(5):
            ctrl.decide()
        res = ctrl.log.frequency_residency(cfg.dvfs.frequencies_ghz)
        assert sum(res.values()) == pytest.approx(1.0)
        assert res[1.3] == pytest.approx(1.0)

    def test_residency_empty_log(self, cfg):
        log = ControllerLog()
        res = log.frequency_residency(cfg.dvfs.frequencies_ghz)
        assert all(v == 0.0 for v in res.values())

    def test_residency_counts_all_domains(self, cfg):
        ctrl = DvfsController(StaticPredictor(2), StaticObjective(2.2), cfg)
        ctrl.decide()
        res = ctrl.log.frequency_residency(cfg.dvfs.frequencies_ghz)
        assert res[2.2] == pytest.approx(1.0)

    def test_residency_snaps_float_noise_onto_grid(self, cfg):
        # Regression: decisions that round-tripped through float
        # arithmetic (e.g. 0.1 * 17 != 1.7) used to miss the exact-==
        # bucket lookup and silently vanish from the residency, leaving
        # the fractions summing below 1.0.
        log = ControllerLog()
        log.chosen_freqs.append([0.1 * 17, 1.3 + 1e-8])
        log.predictions.append([None, None])
        grid = cfg.dvfs.frequencies_ghz
        res = log.frequency_residency(grid)
        assert sum(res.values()) == pytest.approx(1.0)
        assert res[1.7] == pytest.approx(0.5)
        assert res[1.3] == pytest.approx(0.5)
        assert set(res) == set(grid)  # keys are the grid floats themselves

    def test_residency_rejects_off_grid_frequency(self, cfg):
        log = ControllerLog()
        log.chosen_freqs.append([1.75, 1.7])
        with pytest.raises(ValueError, match="1.75"):
            log.frequency_residency(cfg.dvfs.frequencies_ghz)
