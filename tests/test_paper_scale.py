"""Smoke tests at the paper's platform scale (64 CUs, 40 waves/CU).

The full evaluation at paper scale takes minutes per run; these tests
only verify the machinery holds together at that geometry: dispatch,
epoch stepping, domain mapping at 32-CU granularity, and the oracle's
snapshot/restore determinism with 64 domains.
"""

import pytest

from repro.config import paper_config
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry

from helpers import make_loop_program


@pytest.fixture(scope="module")
def paper_gpu():
    cfg = paper_config()
    gpu = Gpu(cfg.gpu, cfg.dvfs.reference_freq_ghz)
    prog = make_loop_program(n_valu=10, n_loads=2, trips=400)
    gpu.load_kernel(Kernel.homogeneous(prog, WorkgroupGeometry(128, 4)))
    return cfg, gpu


class TestPaperScale:
    def test_geometry(self, paper_gpu):
        cfg, gpu = paper_gpu
        assert len(gpu.cus) == 64
        assert len(gpu.domains) == 64
        assert sum(len(cu.waves) for cu in gpu.cus) == 128 * 4

    def test_epoch_runs(self, paper_gpu):
        cfg, gpu = paper_gpu
        result = gpu.run_epoch(cfg.dvfs.epoch_ns)
        assert result.total_committed() > 0
        assert len(result.cu_stats) == 64

    def test_per_domain_frequencies(self, paper_gpu):
        cfg, gpu = paper_gpu
        freqs = [cfg.dvfs.frequencies_ghz[i % 10] for i in range(64)]
        changed = gpu.set_domain_frequencies(freqs)
        assert changed > 0
        result = gpu.run_epoch(cfg.dvfs.epoch_ns)
        assert result.frequencies_ghz == tuple(freqs)

    def test_clone_determinism_at_scale(self, paper_gpu):
        cfg, gpu = paper_gpu
        snap = Gpu(cfg.gpu)
        snap.restore(gpu.snapshot())
        a = gpu.run_epoch(cfg.dvfs.epoch_ns)
        b = snap.run_epoch(cfg.dvfs.epoch_ns)
        assert [s.committed for s in a.cu_stats] == [s.committed for s in b.cu_stats]

    def test_coarse_domain_granularity(self):
        cfg = paper_config(cus_per_domain=32)
        gpu = Gpu(cfg.gpu, cfg.dvfs.reference_freq_ghz)
        assert len(gpu.domains) == 2
        gpu.load_kernel(
            Kernel.homogeneous(make_loop_program(trips=100), WorkgroupGeometry(64, 4))
        )
        gpu.set_domain_frequencies([1.3, 2.2])
        assert gpu.cus[0].frequency_ghz == pytest.approx(1.3)
        assert gpu.cus[63].frequency_ghz == pytest.approx(2.2)
        result = gpu.run_epoch(cfg.dvfs.epoch_ns)
        per_domain = gpu.committed_per_domain(result)
        assert len(per_domain) == 2
        assert sum(per_domain) == result.total_committed()
