"""PC-indexed sensitivity table: indexing, update/lookup, statistics."""

import pytest
from hypothesis import given, strategies as st

from repro.core.pc_table import PCTable, PCTableConfig
from repro.core.sensitivity import LinearSensitivity


class TestConfig:
    def test_paper_geometry(self):
        cfg = PCTableConfig()
        assert cfg.n_entries == 128
        assert cfg.offset_bits == 4
        assert cfg.instructions_per_entry == 4
        assert cfg.covered_instructions == 512

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            PCTableConfig(n_entries=0)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            PCTableConfig(update_weight=0.0)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            PCTableConfig(offset_bits=-1)


class TestIndexing:
    def test_offset_bits_group_nearby_pcs(self):
        t = PCTable(PCTableConfig(offset_bits=4, instruction_bytes=4))
        # Instructions 0..3 share entry 0 (16 bytes / 4-byte instrs).
        assert t.index_of(0 * 4) == t.index_of(3 * 4)
        assert t.index_of(0 * 4) != t.index_of(4 * 4)

    def test_wraps_modulo_entries(self):
        t = PCTable(PCTableConfig(n_entries=16, offset_bits=0))
        assert t.index_of(16 * 4) == t.index_of(0)

    def test_zero_offset_separates_every_pc(self):
        t = PCTable(PCTableConfig(offset_bits=0, n_entries=128))
        assert t.index_of(0) != t.index_of(1)


class TestUpdateLookup:
    def test_miss_on_empty(self):
        t = PCTable()
        assert t.lookup(5) is None
        assert t.hit_ratio == 0.0

    def test_hit_after_update(self):
        t = PCTable()
        t.update(5, LinearSensitivity(10.0, 3.0))
        got = t.lookup(5)
        assert got is not None
        assert got.slope == pytest.approx(3.0)
        assert t.hit_ratio == 1.0

    def test_last_value_semantics(self):
        t = PCTable()
        t.update(5, LinearSensitivity(1.0, 1.0))
        t.update(5, LinearSensitivity(9.0, 9.0))
        assert t.lookup(5).slope == pytest.approx(9.0)

    def test_blended_update(self):
        t = PCTable(PCTableConfig(update_weight=0.5))
        t.update(5, LinearSensitivity(0.0, 0.0))
        t.update(5, LinearSensitivity(10.0, 10.0))
        assert t.lookup(5).slope == pytest.approx(5.0)

    def test_nearby_pcs_share_entry(self):
        t = PCTable()
        t.update(0, LinearSensitivity(1.0, 7.0))
        assert t.lookup(3).slope == pytest.approx(7.0)

    def test_collision_overwrites(self):
        t = PCTable(PCTableConfig(n_entries=4, offset_bits=0))
        t.update(0, LinearSensitivity(0.0, 1.0))
        t.update(4, LinearSensitivity(0.0, 2.0))  # collides with 0
        # Tagless hardware: the aliased value is returned...
        assert t.lookup(0).slope == pytest.approx(2.0)

    def test_aliased_lookup_is_not_a_hit(self):
        t = PCTable(PCTableConfig(n_entries=4, offset_bits=0))
        t.update(4, LinearSensitivity(0.0, 2.0))
        assert t.lookup(0) is not None  # aliased value used
        assert t.hits == 0  # ...but accounted as a miss
        assert t.lookup(4) is not None
        assert t.hits == 1

    def test_occupancy(self):
        t = PCTable(PCTableConfig(n_entries=8, offset_bits=0, instruction_bytes=1))
        assert t.occupancy == 0.0
        t.update(0, LinearSensitivity(1.0, 1.0))
        t.update(1, LinearSensitivity(1.0, 1.0))
        assert t.occupancy == pytest.approx(0.25)

    @given(st.integers(0, 10_000))
    def test_property_update_then_lookup_hits(self, pc_idx):
        t = PCTable()
        t.update(pc_idx, LinearSensitivity(2.0, 4.0))
        got = t.lookup(pc_idx)
        assert got is not None
        assert got.i0 == pytest.approx(2.0)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_property_index_in_range(self, pc, entries_seed):
        t = PCTable(PCTableConfig(n_entries=1 + entries_seed % 256))
        assert 0 <= t.index_of(pc) < t.config.n_entries
