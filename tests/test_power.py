"""Power model: V(f) map, dynamic/leakage, IVR, energy accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.config import GpuConfig, MemoryConfig, PowerConfig
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.power.energy import EnergyAccountant, EnergyBreakdown, ed_n_p
from repro.power.model import PowerModel, voltage_for_frequency

from helpers import make_loop_program


@pytest.fixture
def model():
    return PowerModel(PowerConfig())


class TestVoltageMap:
    def test_endpoints(self, model):
        cfg = model.config
        assert model.voltage(cfg.f_min_ghz) == pytest.approx(cfg.v_min)
        assert model.voltage(cfg.f_max_ghz) == pytest.approx(cfg.v_max)

    def test_monotonic(self, model):
        freqs = [1.3 + 0.1 * i for i in range(10)]
        volts = [model.voltage(f) for f in freqs]
        assert volts == sorted(volts)

    def test_clamps_out_of_range(self, model):
        assert model.voltage(0.5) == pytest.approx(model.config.v_min)
        assert model.voltage(5.0) == pytest.approx(model.config.v_max)

    @given(st.floats(1.3, 2.2))
    def test_property_in_bounds(self, f):
        cfg = PowerConfig()
        v = voltage_for_frequency(cfg, f)
        assert cfg.v_min <= v <= cfg.v_max


class TestPower:
    def test_dynamic_power_increases_superlinearly(self, model):
        p13 = model.dynamic_power_per_cu(1.3, 1.0)
        p22 = model.dynamic_power_per_cu(2.2, 1.0)
        assert p22 / p13 > 2.2 / 1.3  # more than linear in f

    def test_activity_scales_dynamic_power(self, model):
        busy = model.dynamic_power_per_cu(1.7, 1.0)
        idle = model.dynamic_power_per_cu(1.7, 0.0)
        assert 0.0 < idle < busy
        # Idle floor: clock tree never gates fully.
        assert idle / busy == pytest.approx(model.config.idle_activity)

    def test_leakage_weakly_voltage_dependent(self, model):
        l_lo = model.leakage_power_per_cu(1.3)
        l_hi = model.leakage_power_per_cu(2.2)
        assert l_lo < l_hi
        # "Does not significantly vary" (Section 5): < 2x across range.
        assert l_hi / l_lo < 2.0

    def test_temperature_scales_leakage(self):
        hot = PowerModel(PowerConfig(temperature_factor=1.5))
        cold = PowerModel(PowerConfig(temperature_factor=1.0))
        assert hot.leakage_power_per_cu(1.7) > cold.leakage_power_per_cu(1.7)

    def test_ivr_efficiency_peaks_at_peak_voltage(self, model):
        cfg = model.config
        peak = model.ivr_efficiency(cfg.ivr_peak_voltage)
        low = model.ivr_efficiency(cfg.v_min)
        assert peak == pytest.approx(cfg.ivr_efficiency_peak)
        assert low < peak

    def test_wall_power_includes_ivr_loss(self, model):
        consumed = model.dynamic_power_per_cu(1.7, 0.5) + model.leakage_power_per_cu(1.7)
        wall = model.cu_power(1.7, 0.5)
        assert wall > consumed

    def test_memory_power_scales_with_banks(self, model):
        assert model.memory_power(16) == pytest.approx(2 * model.memory_power(8))

    def test_transition_energy(self, model):
        assert model.transition_energy(3) == pytest.approx(
            3 * model.config.transition_energy
        )

    @given(st.floats(1.3, 2.2), st.floats(0.0, 1.0))
    def test_property_power_positive(self, f, a):
        m = PowerModel(PowerConfig())
        assert m.cu_power(f, a) > 0.0


class TestEdnp:
    def test_ed2p(self):
        assert ed_n_p(2.0, 3.0, 2) == pytest.approx(18.0)

    def test_edp(self):
        assert ed_n_p(2.0, 3.0, 1) == pytest.approx(6.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ed_n_p(-1.0, 1.0)


class TestEnergyAccountant:
    def _run_epochs(self, freq, n=3):
        cfg = GpuConfig(n_cus=2, waves_per_cu=4, memory=MemoryConfig(n_l2_banks=2))
        gpu = Gpu(cfg, initial_freq_ghz=freq)
        gpu.load_kernel(
            Kernel.homogeneous(make_loop_program(trips=5000), WorkgroupGeometry(4, 2))
        )
        acct = EnergyAccountant(cfg, PowerModel(PowerConfig()))
        for _ in range(n):
            acct.add_epoch(gpu.run_epoch(1000.0))
        return acct

    def test_energy_accumulates(self):
        acct = self._run_epochs(1.7)
        assert acct.breakdown.total > 0
        assert acct.breakdown.elapsed_ns == pytest.approx(3000.0)
        assert len(acct.power_trace) == 3

    def test_higher_frequency_costs_more_energy(self):
        lo = self._run_epochs(1.3).breakdown.total
        hi = self._run_epochs(2.2).breakdown.total
        assert hi > lo

    def test_breakdown_components(self):
        acct = self._run_epochs(1.7)
        b = acct.breakdown
        assert b.cu_dynamic_and_leakage > 0
        assert b.memory > 0
        assert b.total == pytest.approx(
            b.cu_dynamic_and_leakage + b.memory + b.transitions
        )

    def test_ednp_helpers_take_explicit_delay(self):
        b = EnergyBreakdown(cu_dynamic_and_leakage=10.0, elapsed_ns=2.0)
        assert b.edp(1.5) == pytest.approx(15.0)
        assert b.ed2p(1.5) == pytest.approx(22.5)
        assert b.ednp(3, 1.5) == pytest.approx(33.75)
