"""Whole-GPU: epoch stepping, domains, transitions, snapshot replay."""

import pytest

from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry

from helpers import make_loop_program


def loaded_gpu(config, trips=100, n_workgroups=4):
    gpu = Gpu(config.gpu, initial_freq_ghz=1.7)
    prog = make_loop_program(trips=trips)
    gpu.load_kernel(Kernel.homogeneous(prog, WorkgroupGeometry(n_workgroups, 2)))
    return gpu


class TestEpochStepping:
    def test_time_advances_by_epoch(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        gpu.run_epoch(1000.0)
        assert gpu.time == pytest.approx(1000.0)
        gpu.run_epoch(500.0)
        assert gpu.time == pytest.approx(1500.0)

    def test_epoch_result_structure(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        r = gpu.run_epoch(1000.0)
        assert len(r.cu_stats) == tiny_config.gpu.n_cus
        assert len(r.wave_records) == tiny_config.gpu.n_cus
        assert r.total_committed() > 0
        assert r.duration_ns == pytest.approx(1000.0)

    def test_workgroups_distributed_round_robin(self, tiny_config):
        gpu = loaded_gpu(tiny_config, n_workgroups=4)
        per_cu = [len(cu.waves) for cu in gpu.cus]
        assert per_cu == [4, 4]

    def test_wave_records_have_pcs(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        gpu.run_epoch(1000.0)
        r = gpu.run_epoch(1000.0)
        recs = [rec for cu in r.wave_records for rec in cu]
        assert recs
        assert any(rec.start_pc_idx > 0 for rec in recs)


class TestLoadKernel:
    def test_workgroup_wider_than_a_cu_is_rejected(self, tiny_config):
        gpu = Gpu(tiny_config.gpu)
        wide = Kernel.homogeneous(make_loop_program(), WorkgroupGeometry(2, 5), name="wide")
        with pytest.raises(ValueError, match=r"'wide' has 5 waves per workgroup.*waves_per_cu=4"):
            gpu.load_kernel(wide)
        assert gpu.done  # nothing was enqueued

    def test_workgroup_filling_a_cu_runs(self, tiny_config):
        gpu = Gpu(tiny_config.gpu)
        gpu.load_kernel(Kernel.homogeneous(make_loop_program(trips=5), WorkgroupGeometry(2, 4)))
        for _ in range(1000):
            if gpu.done:
                break
            gpu.run_epoch(1000.0)
        assert gpu.done


class TestFrequencyControl:
    def test_set_frequencies_applies_to_cus(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        gpu.set_domain_frequencies([1.3, 2.2])
        assert gpu.cus[0].frequency_ghz == pytest.approx(1.3)
        assert gpu.cus[1].frequency_ghz == pytest.approx(2.2)

    def test_change_count_returned(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        assert gpu.set_domain_frequencies([1.3, 1.7]) == 1
        assert gpu.set_domain_frequencies([1.3, 1.7]) == 0

    def test_wrong_length_rejected(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        with pytest.raises(ValueError):
            gpu.set_domain_frequencies([1.7])

    def test_transition_latency_freezes_cu(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        gpu.set_domain_frequencies([2.2, 1.7], transition_latency_ns=100.0)
        r = gpu.run_epoch(1000.0)
        # CU0 lost 100ns; CU1 (unchanged) did not.
        assert gpu.cus[0].now == pytest.approx(1000.0)

    def test_transitions_recorded_in_result(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        gpu.set_domain_frequencies([1.3, 2.2])
        r = gpu.run_epoch(1000.0)
        assert r.transitions == 2
        r2 = gpu.run_epoch(1000.0)
        assert r2.transitions == 0

    def test_frequencies_in_result(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        gpu.set_domain_frequencies([1.5, 1.9])
        r = gpu.run_epoch(1000.0)
        assert r.frequencies_ghz == (1.5, 1.9)

    def test_higher_frequency_commits_more(self, tiny_config):
        lo = loaded_gpu(tiny_config, trips=5000)
        hi = loaded_gpu(tiny_config, trips=5000)
        lo.set_domain_frequencies([1.3, 1.3])
        hi.set_domain_frequencies([2.2, 2.2])
        assert hi.run_epoch(1000.0).total_committed() > lo.run_epoch(1000.0).total_committed()


class TestDomains:
    def test_multi_cu_domain(self):
        from repro.config import GpuConfig, MemoryConfig

        cfg = GpuConfig(n_cus=4, waves_per_cu=4, cus_per_domain=2, memory=MemoryConfig(n_l2_banks=2))
        gpu = Gpu(cfg, 1.7)
        gpu.set_domain_frequencies([1.3, 2.2])
        assert [cu.frequency_ghz for cu in gpu.cus] == [1.3, 1.3, 2.2, 2.2]

    def test_committed_per_domain_aggregates(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        r = gpu.run_epoch(1000.0)
        per_domain = gpu.committed_per_domain(r)
        assert sum(per_domain) == r.total_committed()


def restored(gpu):
    """A clone of ``gpu``: a fresh GPU restored from its snapshot."""
    twin = Gpu(gpu.config)
    twin.restore(gpu.snapshot())
    return twin


class TestSnapshot:
    def test_clone_replays_bit_identically(self, quad_config):
        gpu = loaded_gpu(quad_config, trips=500)
        gpu.run_epoch(1000.0)
        snap = restored(gpu)
        a = gpu.run_epoch(1000.0)
        b = snap.run_epoch(1000.0)
        assert [s.committed for s in a.cu_stats] == [s.committed for s in b.cu_stats]
        assert a.wave_records == b.wave_records

    def test_clone_with_different_frequency_diverges(self, quad_config):
        gpu = loaded_gpu(quad_config, trips=5000)
        gpu.run_epoch(1000.0)
        snap = restored(gpu)
        snap.set_domain_frequencies([2.2] * 4)
        a = gpu.run_epoch(1000.0)
        b = snap.run_epoch(1000.0)
        assert b.total_committed() > a.total_committed()

    def test_clone_does_not_mutate_original(self, tiny_config):
        gpu = loaded_gpu(tiny_config)
        t = gpu.time
        snap = restored(gpu)
        snap.run_epoch(1000.0)
        assert gpu.time == t
