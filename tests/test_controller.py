"""DVFS controller: decide/observe flow, logs, residency, fallbacks."""

import dataclasses
import math

import pytest

from repro.config import small_config
from repro.core.controller import ControllerLog, DvfsController
from repro.core.objectives import (
    EDnPObjective,
    Objective,
    PerformanceCapObjective,
    QoSDeadlineObjective,
    StaticObjective,
)
from repro.core.predictors import StaticPredictor
from repro.core.sensitivity import LinearSensitivity
from repro.dvfs.designs import make_controller
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry

from helpers import ForcedLinePredictor, make_loop_program


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


class SpyObjective(Objective):
    """Delegates to ``inner`` and records every line it is handed."""

    def __init__(self, inner: Objective) -> None:
        self.inner = inner
        self.lines = []

    def choose(self, line, freq_grid, current_f, ctx, domain=0):
        self.lines.append(line)
        return self.inner.choose(line, freq_grid, current_f, ctx, domain=domain)


NAN = float("nan")
INF = float("inf")
NON_FINITE_LINES = [
    LinearSensitivity(NAN, 100.0),
    LinearSensitivity(500.0, NAN),
    LinearSensitivity(INF, 100.0),
    LinearSensitivity(500.0, -INF),
]
OBJECTIVES = [
    EDnPObjective(2),
    PerformanceCapObjective(0.05),
    QoSDeadlineObjective(1000.0),
]


def finite_or_none(line):
    return line is None or (math.isfinite(line.i0) and math.isfinite(line.slope))


class TestNonFiniteLineFallback:
    """A non-finite predicted line never reaches an objective: NaN would
    floor to zero commits and pin EDnP/ENERGY@cap to f_min, QOS to f_max."""

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: o.name)
    @pytest.mark.parametrize("bad", NON_FINITE_LINES, ids=repr)
    def test_replaced_by_the_stall_line_of_the_last_epoch(self, cfg, objective, bad):
        _, result = run_gpu_epoch(cfg)
        spy = SpyObjective(objective)
        ctrl = DvfsController(ForcedLinePredictor(cfg.gpu.n_domains, bad), spy, cfg)
        ctrl.observe(result)
        decision = ctrl.decide()

        stall = make_controller("STALL", cfg, objective)
        stall.observe(result)
        stall_line = stall.predictor.predict_domains()[0]
        assert decision[0] == stall.choose_for(stall_line, 0)
        assert all(finite_or_none(line) for line in spy.lines)
        assert spy.lines[0] == stall_line
        assert ctrl.last_predictions()[0] == stall_line
        assert ctrl.non_finite_fallbacks == 1

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: o.name)
    def test_holds_frequency_before_any_epoch(self, cfg, objective):
        spy = SpyObjective(objective)
        ctrl = DvfsController(ForcedLinePredictor(cfg.gpu.n_domains, NON_FINITE_LINES[0]),
                              spy, cfg)
        assert ctrl.decide()[0] == cfg.dvfs.reference_freq_ghz
        assert len(spy.lines) == cfg.gpu.n_domains - 1  # domain 0 never asked
        assert all(finite_or_none(line) for line in spy.lines)
        assert ctrl.last_predictions()[0] is None
        assert ctrl.non_finite_fallbacks == 1

    def test_holds_frequency_when_the_stall_line_is_not_finite_either(self, cfg):
        _, result = run_gpu_epoch(cfg)
        # An epoch of infinite length makes STALL's own line NaN.
        endless = dataclasses.replace(result, t_end=INF)
        spy = SpyObjective(EDnPObjective(2))
        ctrl = DvfsController(ForcedLinePredictor(cfg.gpu.n_domains, NON_FINITE_LINES[0]),
                              spy, cfg)
        ctrl.observe(endless)
        assert ctrl.decide()[0] == cfg.dvfs.reference_freq_ghz
        assert len(spy.lines) == cfg.gpu.n_domains - 1  # domain 0 never asked
        assert all(finite_or_none(line) for line in spy.lines)
        assert ctrl.non_finite_fallbacks == 1

    def test_finite_lines_pass_through_untouched(self, cfg):
        line = LinearSensitivity(500.0, 100.0)
        spy = SpyObjective(EDnPObjective(2))
        ctrl = DvfsController(ForcedLinePredictor(cfg.gpu.n_domains, line), spy, cfg)
        ctrl.decide()
        assert spy.lines[0] is line
        assert ctrl.non_finite_fallbacks == 0
