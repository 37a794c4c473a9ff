"""Configuration validation and derived quantities."""

import pytest

from repro.config import (
    DvfsConfig,
    GpuConfig,
    MemoryConfig,
    PowerConfig,
    SimConfig,
    default_frequency_grid,
    paper_config,
    small_config,
    transition_latency_ns,
)


class TestFrequencyGrid:
    def test_ten_states(self):
        grid = default_frequency_grid()
        assert len(grid) == 10

    def test_range_matches_paper(self):
        grid = default_frequency_grid()
        assert grid[0] == pytest.approx(1.3)
        assert grid[-1] == pytest.approx(2.2)

    def test_hundred_mhz_steps(self):
        grid = default_frequency_grid()
        for a, b in zip(grid, grid[1:]):
            assert b - a == pytest.approx(0.1)


class TestTransitionLatency:
    def test_paper_calibration_points(self):
        assert transition_latency_ns(1_000.0) == pytest.approx(4.0)
        assert transition_latency_ns(10_000.0) == pytest.approx(40.0)
        assert transition_latency_ns(50_000.0) == pytest.approx(200.0)
        assert transition_latency_ns(100_000.0) == pytest.approx(400.0)

    def test_interpolates_between_points(self):
        mid = transition_latency_ns(30_000.0)
        assert 40.0 < mid < 200.0

    def test_clamps_outside_range(self):
        assert transition_latency_ns(10.0) == pytest.approx(4.0)
        assert transition_latency_ns(1e9) == pytest.approx(400.0)

    def test_dvfs_config_override(self):
        cfg = DvfsConfig(epoch_ns=1000.0, transition_latency_override_ns=7.5)
        assert cfg.transition_latency_ns == pytest.approx(7.5)

    def test_dvfs_config_uses_table(self):
        cfg = DvfsConfig(epoch_ns=10_000.0)
        assert cfg.transition_latency_ns == pytest.approx(40.0)


class TestGpuConfig:
    def test_defaults_match_paper_platform(self):
        cfg = GpuConfig()
        assert cfg.n_cus == 64
        assert cfg.waves_per_cu == 40
        assert cfg.memory.n_l2_banks == 16
        assert cfg.memory_freq_ghz == pytest.approx(1.6)

    def test_domain_count(self):
        assert GpuConfig(n_cus=8, cus_per_domain=2).n_domains == 4

    def test_rejects_indivisible_domain_size(self):
        with pytest.raises(ValueError):
            GpuConfig(n_cus=8, cus_per_domain=3)

    def test_rejects_zero_cus(self):
        with pytest.raises(ValueError):
            GpuConfig(n_cus=0)

    @pytest.mark.parametrize("field,value", [
        ("waves_per_cu", 0),
        ("issue_width", 0),
        ("sync_quantum_ns", 0.0),
        ("sync_quantum_ns", -10.0),
        ("sync_quantum_ns", float("nan")),
        ("sync_quantum_ns", float("inf")),
    ])
    def test_rejects_geometry_that_cannot_run(self, field, value):
        # Each of these used to be accepted: a zero quantum hangs
        # Gpu.run_epoch, zero issue width or CU slots commit nothing.
        with pytest.raises(ValueError, match=field):
            GpuConfig(**{field: value})


class TestDvfsConfig:
    def test_reference_on_grid_required(self):
        with pytest.raises(ValueError):
            DvfsConfig(reference_freq_ghz=1.75)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            DvfsConfig(frequencies_ghz=(2.2, 1.3), reference_freq_ghz=1.3)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            DvfsConfig(frequencies_ghz=())

    def test_rejects_non_positive_epoch(self):
        with pytest.raises(ValueError):
            DvfsConfig(epoch_ns=0.0)

    def test_min_max(self):
        cfg = DvfsConfig()
        assert cfg.f_min == pytest.approx(1.3)
        assert cfg.f_max == pytest.approx(2.2)

    @pytest.mark.parametrize("grid", [
        (1.3, 1.3, 1.7),  # duplicate point: sorted, so it used to pass
        (-1.0, 1.3, 1.7),
        (0.0, 1.3, 1.7),
        (1.3, 1.7, float("inf")),
    ])
    def test_rejects_duplicate_or_non_positive_grid(self, grid):
        with pytest.raises(ValueError, match="grid points"):
            DvfsConfig(frequencies_ghz=grid, reference_freq_ghz=1.7)


class TestPowerConfig:
    @pytest.mark.parametrize("field,value", [
        # Each was accepted before: negative C_eff gave negative power at
        # every f, zero IVR efficiency divided by zero on first use.
        ("c_eff_per_cu", -1.0),
        ("c_eff_per_cu", 0.0),
        ("c_eff_per_cu", float("inf")),
        ("leakage_per_cu_at_vmax", -0.35),
        ("leakage_per_cu_at_vmax", float("nan")),
        ("temperature_factor", 0.0),
        ("ivr_efficiency_peak", 0.0),
        ("ivr_efficiency_peak", 1.5),
        ("ivr_efficiency_floor", 0.0),
        ("ivr_efficiency_floor", -0.2),
        ("idle_activity", 1.5),
        ("memory_power_per_bank", -0.5),
        ("transition_energy", -2.0),
    ])
    def test_rejects_hostile_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            PowerConfig(**{field: value})

    @pytest.mark.parametrize("overrides", [
        # Inverted: power fell as f rose (2.12 -> 1.38 over 1.3-2.2 GHz).
        {"v_min": 1.1, "v_max": 0.7},
        {"v_min": 0.9, "v_max": 0.9},
        {"v_min": 0.0},
        {"f_min_ghz": 2.2, "f_max_ghz": 1.3},
        {"f_min_ghz": 1.7, "f_max_ghz": 1.7},
    ])
    def test_rejects_empty_or_inverted_range(self, overrides):
        with pytest.raises(ValueError, match="need 0 <"):
            PowerConfig(**overrides)

    def test_accepted_config_gives_positive_power_rising_with_f(self):
        from repro.power.model import PowerModel

        model = PowerModel(PowerConfig(ivr_efficiency_floor=1.0, idle_activity=0.0))
        powers = [model.cu_power(f, 0.5) for f in default_frequency_grid()]
        assert all(p > 0 for p in powers)
        assert powers == sorted(powers)


class TestSimConfig:
    @pytest.mark.parametrize("grid", [
        (1.0, 1.7, 3.0),  # accepted before: V(f) clamped both ends
        (1.2, 1.7),
        (1.7, 2.3),
    ])
    def test_rejects_grid_outside_power_calibration(self, grid):
        with pytest.raises(ValueError, match="outside the power model"):
            SimConfig(dvfs=DvfsConfig(frequencies_ghz=grid, reference_freq_ghz=1.7))

    def test_range_follows_the_power_config(self):
        power = PowerConfig(f_min_ghz=1.0, f_max_ghz=3.0)
        dvfs = DvfsConfig(frequencies_ghz=(1.0, 1.7, 3.0), reference_freq_ghz=1.7)
        assert SimConfig(dvfs=dvfs, power=power).dvfs.f_max == 3.0


class TestFactories:
    def test_small_config_scales_down(self):
        cfg = small_config(n_cus=4)
        assert cfg.gpu.n_cus == 4
        assert cfg.gpu.n_domains == 4

    def test_paper_config_is_paper_scale(self):
        cfg = paper_config()
        assert cfg.gpu.n_cus == 64
        assert cfg.gpu.waves_per_cu == 40

    def test_paper_config_domain_granularity(self):
        cfg = paper_config(cus_per_domain=32)
        assert cfg.gpu.n_domains == 2

    def test_small_config_domains(self):
        cfg = small_config(n_cus=4, cus_per_domain=2)
        assert cfg.gpu.n_domains == 2
