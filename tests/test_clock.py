"""V/f domain map."""

import pytest

from repro.config import GpuConfig, MemoryConfig
from repro.gpu.clock import ClockDomain, DomainMap


def make_map(n_cus=4, per=2, f=1.7):
    cfg = GpuConfig(n_cus=n_cus, waves_per_cu=4, cus_per_domain=per,
                    memory=MemoryConfig(n_l2_banks=2))
    return DomainMap(cfg, f)


class TestDomainMap:
    def test_partitioning(self):
        dm = make_map()
        assert len(dm) == 2
        assert dm[0].cu_ids == (0, 1)
        assert dm[1].cu_ids == (2, 3)

    def test_initial_frequencies(self):
        dm = make_map(f=1.5)
        assert dm.frequencies() == [1.5, 1.5]

    def test_iteration(self):
        dm = make_map()
        assert [d.domain_id for d in dm] == [0, 1]

    def test_clone_independent(self):
        dm = make_map()
        c = dm.clone()
        c[0].frequency_ghz = 2.2
        c[0].transitions = 5
        assert dm[0].frequency_ghz == pytest.approx(1.7)
        assert dm[0].transitions == 0

    def test_transitions_counter(self):
        d = ClockDomain(0, (0,), 1.7)
        d.transitions += 1
        assert d.clone().transitions == 1
