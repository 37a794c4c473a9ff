"""Estimation models: interval analysis and the wavefront STALL model."""

import pytest

from repro.config import GpuConfig, MemoryConfig
from repro.core.estimators import (
    ALL_CU_MODELS,
    CrispModel,
    CriticalPathModel,
    LeadingLoadModel,
    StallModel,
    WavefrontStallModel,
    interval_line,
)
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry

from helpers import make_loop_program


def run_one_epoch(n_valu=8, n_loads=2, l1_hit=0.5, freq=1.7, warmup=2):
    cfg = GpuConfig(n_cus=2, waves_per_cu=4, memory=MemoryConfig(n_l2_banks=2))
    gpu = Gpu(cfg, initial_freq_ghz=freq)
    prog = make_loop_program(n_valu=n_valu, n_loads=n_loads, l1_hit=l1_hit, trips=3000)
    gpu.load_kernel(Kernel.homogeneous(prog, WorkgroupGeometry(4, 2)))
    for _ in range(warmup):
        gpu.run_epoch(1000.0)
    return gpu.run_epoch(1000.0), cfg


class TestIntervalLine:
    def test_pure_core_scales_linearly(self):
        # All core time: I(f) = I * f/f1 -> slope I/f1, i0 = 0.
        line = interval_line(170.0, 1000.0, 0.0, 1.7, 1.3, 2.2)
        assert line.i0 == pytest.approx(0.0, abs=1e-6)
        assert line.slope == pytest.approx(100.0)

    def test_pure_async_is_flat(self):
        line = interval_line(100.0, 0.0, 1000.0, 1.7, 1.3, 2.2)
        assert line.slope == pytest.approx(0.0)
        assert line.predict(2.2) == pytest.approx(100.0)

    def test_mixed_between_extremes(self):
        line = interval_line(100.0, 500.0, 500.0, 1.7, 1.3, 2.2)
        assert 0.0 < line.slope < 100.0 / 1.7

    def test_zero_commits_safe(self):
        line = interval_line(0.0, 500.0, 500.0, 1.7, 1.3, 2.2)
        assert line.predict(2.2) == 0.0

    def test_passes_through_measured_point_approximately(self):
        committed, t_core, t_async = 150.0, 600.0, 400.0
        line = interval_line(committed, t_core, t_async, 1.7, 1.3, 2.2)
        # The chord through the endpoints sits near the measurement.
        assert line.predict(1.7) == pytest.approx(committed, rel=0.05)


class TestCuModels:
    def test_all_models_produce_lines(self):
        result, cfg = run_one_epoch()
        for model in ALL_CU_MODELS:
            line = model.estimate_cu(result, 0, 1.7, 1.3, 2.2, cfg)
            assert line.predict(1.7) >= 0.0

    def test_compute_bound_epoch_estimated_sensitive(self):
        result, cfg = run_one_epoch(n_valu=30, n_loads=0)
        line = StallModel().estimate_cu(result, 0, 1.7, 1.3, 2.2, cfg)
        commits = result.cu_stats[0].committed
        # Nearly all commits should be predicted frequency-scaling.
        assert line.slope * 1.7 / commits > 0.6

    def test_memory_bound_epoch_estimated_insensitive(self):
        result, cfg = run_one_epoch(n_valu=1, n_loads=4, l1_hit=0.05)
        line = StallModel().estimate_cu(result, 0, 1.7, 1.3, 2.2, cfg)
        commits = max(result.cu_stats[0].committed, 1)
        assert line.slope * 1.7 / commits < 0.5

    def test_models_disagree_on_mixed_epochs(self):
        result, cfg = run_one_epoch(n_valu=6, n_loads=3, l1_hit=0.4)
        slopes = {m.name: m.estimate_cu(result, 0, 1.7, 1.3, 2.2, cfg).slope for m in ALL_CU_MODELS}
        assert len({round(s, 3) for s in slopes.values()}) > 1

    def test_default_wavefront_split_proportional(self):
        result, cfg = run_one_epoch()
        model = CrispModel()
        cu_line = model.estimate_cu(result, 0, 1.7, 1.3, 2.2, cfg)
        parts = model.estimate_wavefronts(result, 0, 1.7, 1.3, 2.2, cfg)
        total = sum(p.line.slope for p in parts)
        assert total == pytest.approx(cu_line.slope, rel=1e-6)


class TestWavefrontStallModel:
    def test_per_wave_estimates_sum_to_cu(self):
        result, cfg = run_one_epoch()
        model = WavefrontStallModel()
        parts = model.estimate_wavefronts(result, 0, 1.7, 1.3, 2.2, cfg)
        cu_line = model.estimate_cu(result, 0, 1.7, 1.3, 2.2, cfg)
        assert sum(p.line.slope for p in parts) == pytest.approx(cu_line.slope)

    def test_estimates_keyed_by_start_pc(self):
        cfg = GpuConfig(n_cus=2, waves_per_cu=4, memory=MemoryConfig(n_l2_banks=2))
        gpu = Gpu(cfg, initial_freq_ghz=1.7)
        prog = make_loop_program(n_valu=8, n_loads=2, l1_hit=0.5, trips=3000)
        gpu.load_kernel(Kernel.homogeneous(prog, WorkgroupGeometry(4, 2)))
        gpu.run_epoch(1000.0)
        start_pcs = {wf.wf_id: wf.pc_idx for wf in gpu.cus[0].waves}
        result = gpu.run_epoch(1000.0)
        parts = WavefrontStallModel().estimate_wavefronts(result, 0, 1.7, 1.3, 2.2, cfg)
        assert parts
        for p in parts:
            assert p.record.start_pc_idx == start_pcs[p.record.wf_id]

    def test_age_normalisation_moves_slope(self):
        result, cfg = run_one_epoch()
        with_age = WavefrontStallModel(age_kappa=0.5).estimate_wavefronts(
            result, 0, 1.7, 1.3, 2.2, cfg
        )
        without = WavefrontStallModel(age_kappa=0.0).estimate_wavefronts(
            result, 0, 1.7, 1.3, 2.2, cfg
        )
        young_with = [p.line.slope for p in with_age if p.record.age_rank > 0]
        young_without = [p.line.slope for p in without if p.record.age_rank > 0]
        assert young_with != young_without

    def test_oldest_wave_unaffected_by_age_normalisation(self):
        result, cfg = run_one_epoch()
        a = WavefrontStallModel(age_kappa=0.5).estimate_wavefronts(result, 0, 1.7, 1.3, 2.2, cfg)
        b = WavefrontStallModel(age_kappa=0.0).estimate_wavefronts(result, 0, 1.7, 1.3, 2.2, cfg)
        oldest_a = [p.line.slope for p in a if p.record.age_rank == 0]
        oldest_b = [p.line.slope for p in b if p.record.age_rank == 0]
        assert oldest_a == pytest.approx(oldest_b)
