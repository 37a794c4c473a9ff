"""Memory subsystem: latency composition, queueing, thrash, snapshots."""

import pytest

from repro.config import MemoryConfig
from repro.gpu.memory import MemorySubsystem


def make_mem(**overrides):
    return MemorySubsystem(MemoryConfig(**overrides))


def l2_latency(cfg):
    """Unqueued L2-hit latency: out, bank service, hit, back."""
    return cfg.l2_interconnect_ns + cfg.l2_service_ns + cfg.l2_hit_extra_ns + cfg.l2_interconnect_ns


def dram_latency(cfg):
    """Unqueued L2-miss latency: the L2 bank, then a DRAM channel."""
    return (
        cfg.l2_interconnect_ns + cfg.l2_service_ns + cfg.dram_service_ns
        + cfg.dram_extra_ns + cfg.l2_interconnect_ns
    )


class TestLatency:
    def test_l2_hit_latency_composition(self):
        mem = make_mem()
        cfg = mem.config
        assert mem.request(0.0, l2_hit=True, bank_key=1) == pytest.approx(l2_latency(cfg))

    def test_dram_latency_longer_than_l2(self):
        mem = make_mem()
        hit = mem.request(0.0, l2_hit=True, bank_key=1)
        miss = make_mem().request(0.0, l2_hit=False, bank_key=1)
        assert miss > hit

    def test_dram_level_reported(self):
        mem = make_mem()
        assert mem.request(5.0, l2_hit=False, bank_key=1) == pytest.approx(
            5.0 + dram_latency(mem.config)
        )


class TestQueueing:
    def test_same_bank_requests_queue(self):
        mem = make_mem(n_l2_banks=2)
        first = mem.request(0.0, l2_hit=True, bank_key=2)
        second = mem.request(0.0, l2_hit=True, bank_key=2)  # same bank
        # The second waits out the first's bank service time.
        assert first == pytest.approx(l2_latency(mem.config))
        assert second - first == pytest.approx(mem.config.l2_service_ns)

    def test_different_banks_do_not_queue(self):
        mem = make_mem(n_l2_banks=4)
        mem.request(0.0, l2_hit=True, bank_key=0)
        other = mem.request(0.0, l2_hit=True, bank_key=1)
        assert other == pytest.approx(l2_latency(mem.config))

    def test_bank_key_is_pure_function_of_access(self):
        """The same access must hit the same bank regardless of what
        other traffic arrived first (no global-order coupling)."""
        a = make_mem(n_l2_banks=4)
        b = make_mem(n_l2_banks=4)
        b.request(0.0, l2_hit=True, bank_key=77)  # extra traffic first
        lat_a = a.request(10.0, l2_hit=True, bank_key=5)
        lat_b = b.request(10.0, l2_hit=True, bank_key=5)
        # Same bank; only possible difference is queueing from the extra
        # request, which used a different bank here.
        assert lat_a == pytest.approx(lat_b)

    def test_queue_drains_over_time(self):
        mem = make_mem(n_l2_banks=1)
        mem.request(0.0, l2_hit=True, bank_key=0)
        late = mem.request(1e6, l2_hit=True, bank_key=0)
        assert late == pytest.approx(1e6 + l2_latency(mem.config))


class TestThrash:
    def test_no_thrash_at_low_rate(self):
        mem = make_mem()
        for t in range(0, 10000, 1000):
            mem.request(float(t), l2_hit=True, bank_key=t)
        assert mem.thrash_degradation() == pytest.approx(0.0)

    def test_thrash_at_high_rate(self):
        mem = make_mem(l2_thrash_rate_per_ns=0.01)
        for i in range(200):
            mem.request(i * 0.5, l2_hit=True, bank_key=i)
        assert mem.thrash_degradation() > 0.0

    def test_thrash_converts_hits_to_misses(self):
        # DRAM's extra latency dwarfs any L2 queue 300 requests can build.
        mem = make_mem(
            l2_thrash_rate_per_ns=0.001, l2_thrash_max_degradation=1.0, dram_extra_ns=1e4
        )
        latencies = [mem.request(i * 0.1, l2_hit=True, bank_key=i) - i * 0.1 for i in range(300)]
        assert max(latencies) > 1e4  # some hits degraded to misses

    def test_degradation_capped(self):
        mem = make_mem(l2_thrash_rate_per_ns=1e-6, l2_thrash_max_degradation=0.6)
        for i in range(300):
            mem.request(i * 0.01, l2_hit=True, bank_key=i)
        assert mem.thrash_degradation() <= 0.6 + 1e-9


def restored(mem):
    """A clone of ``mem``: a fresh memory system restored from its capture."""
    twin = MemorySubsystem(mem.config)
    twin.restore_capture(mem.capture())
    return twin


class TestClone:
    def test_clone_replays_identically(self):
        mem = make_mem(n_l2_banks=2)
        for i in range(10):
            mem.request(i * 3.0, l2_hit=(i % 2 == 0), bank_key=i)
        snap = restored(mem)
        a = [mem.request(100.0 + i, l2_hit=True, bank_key=i) for i in range(5)]
        b = [snap.request(100.0 + i, l2_hit=True, bank_key=i) for i in range(5)]
        assert a == b

    def test_clone_is_independent(self):
        mem = make_mem()
        mem.request(0.0, l2_hit=True, bank_key=0)
        snap = restored(mem)
        mem.request(1.0, l2_hit=True, bank_key=1)
        assert snap.request_counter == 1
        assert snap.bank_busy_until != mem.bank_busy_until
