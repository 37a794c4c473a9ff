"""Wavefront state machine: control flow, blocking, stall accounting."""

import pytest

from repro.gpu.isa import Program, branch, endpgm, valu
from repro.gpu.wavefront import Wavefront


def make_wave(program=None, age=0):
    program = program or Program((valu(), valu(), endpgm()))
    return Wavefront(wf_id=1, workgroup_id=0, wave_in_group=0, program=program, age=age)


class TestControlFlow:
    def test_advance_pc(self):
        wf = make_wave()
        wf.advance_pc()
        assert wf.pc_idx == 1

    def test_branch_taken_until_exhausted(self):
        prog = Program((valu(), branch(0, 2), endpgm()))
        wf = make_wave(prog)
        wf.pc_idx = 1
        wf.take_branch(1, prog[1])
        assert wf.pc_idx == 0  # first iteration jumps back
        wf.pc_idx = 1
        wf.take_branch(1, prog[1])
        assert wf.pc_idx == 0  # second iteration
        wf.pc_idx = 1
        wf.take_branch(1, prog[1])
        assert wf.pc_idx == 2  # exhausted: falls through

    def test_branch_counter_resets_for_reentry(self):
        prog = Program((valu(), branch(0, 1), endpgm()))
        wf = make_wave(prog)
        for _ in range(2):
            wf.pc_idx = 1
            wf.take_branch(1, prog[1])  # taken
            wf.pc_idx = 1
            wf.take_branch(1, prog[1])  # falls through, counter resets
            assert wf.pc_idx == 2


class TestBlocking:
    def test_waitcnt_blocks_and_unblocks(self):
        wf = make_wave()
        wf.outstanding = 2
        wf.block_wait(0, now=100.0)
        assert wf.blocked
        assert not wf.waitcnt_satisfied()
        wf.outstanding = 0
        assert wf.waitcnt_satisfied()
        wf.unblock_wait(now=250.0, epoch_start=0.0)
        assert not wf.blocked
        assert wf.stall_ns == pytest.approx(150.0)
        assert wf.pc_idx == 1  # the waitcnt retired

    def test_stall_clipped_to_epoch(self):
        wf = make_wave()
        wf.outstanding = 1
        wf.block_wait(0, now=100.0)
        wf.outstanding = 0
        # Epoch began after the block started: only in-epoch time counts.
        wf.unblock_wait(now=350.0, epoch_start=200.0)
        assert wf.stall_ns == pytest.approx(150.0)

    def test_store_stall_tracked_separately(self):
        wf = make_wave()
        wf.outstanding = 1
        wf.outstanding_stores = 1
        wf.block_wait(0, now=0.0)
        wf.unblock_wait(now=80.0, epoch_start=0.0)
        assert wf.store_stall_ns == pytest.approx(80.0)

    def test_barrier_stall_accounted(self):
        wf = make_wave()
        wf.block_barrier(now=10.0)
        wf.unblock_barrier(now=60.0, epoch_start=0.0)
        assert wf.barrier_stall_ns == pytest.approx(50.0)
        assert wf.pc_idx == 1

    def test_settle_charges_partial_stall(self):
        wf = make_wave()
        wf.outstanding = 1
        wf.block_wait(0, now=300.0)
        wf.settle_stall(now=1000.0, epoch_start=0.0)
        assert wf.stall_ns == pytest.approx(700.0)
        # Settling again at the same time adds nothing.
        wf.settle_stall(now=1000.0, epoch_start=0.0)
        assert wf.stall_ns == pytest.approx(700.0)

    def test_is_ready_respects_block_and_time(self):
        wf = make_wave()
        assert wf.is_ready(0.0)
        wf.ready_at = 5.0
        assert not wf.is_ready(4.0)
        assert wf.is_ready(5.0)
        wf.block_barrier(5.0)
        assert not wf.is_ready(5.0)


class TestMemoryBookkeeping:
    def test_leading_load_measured(self):
        wf = make_wave()
        wf.note_mem_issue(now=0.0, completion=100.0, is_store=False)
        assert wf.leading_load_ns == pytest.approx(100.0)
        # Second overlapping load is not leading.
        wf.note_mem_issue(now=10.0, completion=110.0, is_store=False)
        assert wf.leading_load_ns == pytest.approx(100.0)

    def test_critical_path_counts_non_overlap(self):
        wf = make_wave()
        wf.note_mem_issue(now=0.0, completion=100.0, is_store=False)
        # Fully overlapped access adds only its extension beyond 100.
        wf.note_mem_issue(now=10.0, completion=130.0, is_store=False)
        assert wf.critical_mem_ns == pytest.approx(130.0)

    def test_completion_underflow_raises(self):
        wf = make_wave()
        with pytest.raises(RuntimeError):
            wf.note_mem_complete(is_store=False)

    def test_outstanding_counts(self):
        wf = make_wave()
        wf.note_mem_issue(0.0, 50.0, is_store=True)
        wf.note_mem_issue(0.0, 60.0, is_store=False)
        assert wf.outstanding == 2
        assert wf.outstanding_stores == 1
        wf.note_mem_complete(is_store=True)
        assert wf.outstanding_stores == 0


class TestHitDraws:
    def test_deterministic(self):
        a = make_wave()
        b = make_wave()
        seq_a = [a.draw_hits(7, 0.5, 0.5, 0.1) for _ in range(20)]
        seq_b = [b.draw_hits(7, 0.5, 0.5, 0.1) for _ in range(20)]
        assert seq_a == seq_b

    def test_zero_jitter_is_static_per_pc(self):
        wf = make_wave()
        outcomes = {wf.draw_hits(9, 0.5, 0.5, 0.0)[:2] for _ in range(50)}
        assert len(outcomes) == 1

    def test_rate_realised_across_pcs(self):
        wf = make_wave()
        hits = sum(wf.draw_hits(pc, 0.7, 0.5, 0.0)[0] for pc in range(500))
        assert 0.6 < hits / 500 < 0.8

    def test_jittered_rate_realised_over_visits(self):
        wf = make_wave()
        hits = sum(wf.draw_hits(3, 0.4, 0.5, 1.0)[0] for _ in range(500))
        assert 0.3 < hits / 500 < 0.5

    def test_visit_counter_returned(self):
        wf = make_wave()
        assert wf.draw_hits(3, 0.5, 0.5, 0.0)[2] == 0
        assert wf.draw_hits(3, 0.5, 0.5, 0.0)[2] == 1
        assert wf.draw_hits(4, 0.5, 0.5, 0.0)[2] == 0


class TestClone:
    """A clone is ``Wavefront.from_capture(wf.capture())``."""

    def test_clone_is_deep_for_mutable_state(self):
        wf = make_wave()
        wf.loop_counters[3] = 7
        wf.pc_visits[5] = 2
        c = Wavefront.from_capture(wf.capture())
        c.loop_counters[3] = 99
        c.pc_visits[5] = 99
        assert wf.loop_counters[3] == 7
        assert wf.pc_visits[5] == 2

    def test_clone_preserves_stats_independently(self):
        wf = make_wave()
        wf.stall_ns = 42.0
        c = Wavefront.from_capture(wf.capture())
        c.stall_ns = 1.0
        assert wf.stall_ns == pytest.approx(42.0)

    def test_clone_copies_scalars(self):
        wf = make_wave()
        wf.pc_idx = 3
        wf.outstanding = 2
        wf.ready_at = 55.5
        c = Wavefront.from_capture(wf.capture())
        assert c.pc_idx == 3
        assert c.outstanding == 2
        assert c.ready_at == pytest.approx(55.5)
