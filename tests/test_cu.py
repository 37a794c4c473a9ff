"""Compute unit: scheduling, barriers, dispatch, epoch stats, snapshots."""

import pytest

from repro.config import GpuConfig, MemoryConfig
from repro.gpu.cu import ComputeUnit
from repro.gpu.isa import Program, ProgramBuilder, barrier, branch, endpgm, load, valu, waitcnt
from repro.gpu.memory import MemorySubsystem


def make_cu(waves_per_cu=4, issue_width=2):
    cfg = GpuConfig(
        n_cus=1,
        waves_per_cu=waves_per_cu,
        issue_width=issue_width,
        memory=MemoryConfig(n_l2_banks=2),
    )
    return ComputeUnit(0, cfg), MemorySubsystem(cfg.memory)


def compute_program(n=10):
    return Program(tuple([valu() for _ in range(n)]) + (endpgm(),))


def enqueue(cu, program, wg_id=0, n_waves=2):
    cu.enqueue_workgroup([(wg_id, w, program) for w in range(n_waves)])
    cu.try_dispatch(0.0)


class TestDispatch:
    def test_whole_workgroup_dispatched(self):
        cu, _ = make_cu(waves_per_cu=4)
        enqueue(cu, compute_program(), n_waves=3)
        assert len(cu.waves) == 3

    def test_workgroup_waits_for_room(self):
        cu, _ = make_cu(waves_per_cu=4)
        enqueue(cu, compute_program(), wg_id=0, n_waves=3)
        enqueue(cu, compute_program(), wg_id=1, n_waves=3)
        # Second workgroup (3 waves) does not fit in the remaining 1 slot.
        assert len(cu.waves) == 3
        assert len(cu.pending_workgroups) == 1

    def test_idle_when_empty(self):
        cu, _ = make_cu()
        assert cu.idle
        enqueue(cu, compute_program())
        assert not cu.idle


class TestExecution:
    def test_compute_program_runs_to_completion(self):
        cu, mem = make_cu()
        enqueue(cu, compute_program(20), n_waves=2)
        cu.begin_epoch(0.0)
        cu.run_until(10_000.0, mem)
        assert cu.idle
        assert cu.stats.committed == 40

    def test_commit_rate_scales_with_frequency(self):
        counts = {}
        for f in (1.3, 2.2):
            cu, mem = make_cu()
            cu.frequency_ghz = f
            enqueue(cu, compute_program(5000), n_waves=2)
            cu.begin_epoch(0.0)
            cu.run_until(1_000.0, mem)
            counts[f] = cu.stats.committed
        assert counts[2.2] > counts[1.3] * 1.4

    def test_oldest_first_priority(self):
        """With issue width 1 and many compute waves, the oldest wave
        makes the most progress."""
        cu, mem = make_cu(waves_per_cu=4, issue_width=1)
        enqueue(cu, compute_program(5000), n_waves=4)
        cu.begin_epoch(0.0)
        cu.run_until(500.0, mem)
        commits = [wf.committed for wf in cu.waves]
        assert commits[0] >= max(commits[1:])

    def test_memory_program_stalls(self):
        b = ProgramBuilder()
        top = b.label()
        b.emit(load(0.0, 0.5), waitcnt(0))
        b.loop_back(top, trips=100)
        prog = b.build()
        cu, mem = make_cu()
        enqueue(cu, prog, n_waves=2)
        cu.begin_epoch(0.0)
        cu.run_until(1_000.0, mem)
        cu.settle_epoch(1_000.0)
        total_stall = sum(wf.stall_ns for wf in cu.waves)
        assert total_stall > 500.0

    def test_waitcnt_with_target_allows_overlap(self):
        """waitcnt(1) lets one load stay in flight: finishes earlier than
        a full drain with waitcnt(0)."""

        def run(target):
            b = ProgramBuilder()
            top = b.label()
            b.emit(load(0.0, 0.5), load(0.0, 0.5), waitcnt(target))
            b.loop_back(top, trips=50)
            prog = b.build()
            cu, mem = make_cu()
            enqueue(cu, prog, n_waves=1)
            cu.begin_epoch(0.0)
            cu.run_until(100_000.0, mem)
            assert cu.idle
            return cu.last_retire_time

        assert run(1) < run(0)


class TestBarrier:
    def test_barrier_synchronises_workgroup(self):
        # One wave computes a long time before the barrier; the other
        # arrives immediately. Both must pass together.
        long_prog = Program(tuple([valu() for _ in range(100)]) + (barrier(), endpgm()))
        cu, mem = make_cu()
        cu.enqueue_workgroup([(0, 0, long_prog), (0, 1, Program((barrier(), endpgm())))])
        cu.try_dispatch(0.0)
        cu.begin_epoch(0.0)
        cu.run_until(50.0, mem)  # long wave still computing
        fast = [wf for wf in cu.waves if len(wf.code) == 2][0]
        assert fast.blocked_barrier
        cu.run_until(100_000.0, mem)
        assert cu.idle

    def test_barrier_releases_when_last_wave_exits(self):
        """A wave that ENDs while its sibling waits at a barrier must not
        deadlock the sibling."""
        ends = Program((endpgm(),))
        waits = Program((barrier(), endpgm()))
        cu, mem = make_cu()
        cu.enqueue_workgroup([(0, 0, waits), (0, 1, ends)])
        cu.try_dispatch(0.0)
        cu.begin_epoch(0.0)
        cu.run_until(10_000.0, mem)
        assert cu.idle

    def test_independent_workgroups_unaffected(self):
        waits = Program((barrier(), endpgm()))
        go = compute_program(10)
        cu, mem = make_cu(waves_per_cu=4)
        cu.enqueue_workgroup([(0, 0, waits), (0, 1, waits)])
        cu.enqueue_workgroup([(1, 0, go)])
        cu.try_dispatch(0.0)
        cu.begin_epoch(0.0)
        cu.run_until(10_000.0, mem)
        assert cu.idle


class TestEpochStats:
    def test_begin_epoch_resets_wave_stats(self):
        cu, mem = make_cu()
        enqueue(cu, compute_program(5000), n_waves=2)
        cu.begin_epoch(0.0)
        cu.run_until(500.0, mem)
        first = cu.waves[0].committed
        assert first > 0
        cu.begin_epoch(500.0)
        assert cu.waves[0].committed == 0
        assert cu.stats.committed == 0

    def test_epoch_start_pc_recorded(self):
        cu, mem = make_cu()
        enqueue(cu, compute_program(5000), n_waves=1)
        cu.begin_epoch(0.0)
        cu.run_until(500.0, mem)
        pc = cu.waves[0].pc_idx
        cu.begin_epoch(500.0)
        assert cu.waves[0].epoch_start_pc_idx == pc

    def test_activity_counters(self):
        cu, mem = make_cu()
        enqueue(cu, compute_program(5000), n_waves=2)
        cu.begin_epoch(0.0)
        cu.run_until(1000.0, mem)
        assert cu.stats.issued == cu.stats.committed

    def test_retire_records_time(self):
        cu, mem = make_cu()
        enqueue(cu, compute_program(10), n_waves=1)
        cu.begin_epoch(0.0)
        cu.run_until(10_000.0, mem)
        assert 0.0 < cu.last_retire_time < 10_000.0


class TestResidencyStructures:
    def test_pending_workgroups_is_fifo_deque(self):
        from collections import deque

        cu, mem = make_cu(waves_per_cu=2)
        for wg in range(4):
            cu.enqueue_workgroup([(wg, 0, compute_program(5)), (wg, 1, compute_program(5))])
        cu.try_dispatch(0.0)
        assert isinstance(cu.pending_workgroups, deque)
        # One workgroup resident, the rest queued in arrival order.
        assert [group[0][0] for group in cu.pending_workgroups] == [1, 2, 3]
        cu.begin_epoch(0.0)
        cu.run_until(100_000.0, mem)
        assert cu.idle  # every queued workgroup eventually dispatched

    def test_wave_position_map_tracks_retires(self):
        """_retire_wave removes via the index map; the map must stay
        exactly {wf_id: list position} through arbitrary retire order."""
        progs = [compute_program(n) for n in (3, 9, 1, 6)]
        cu, mem = make_cu(waves_per_cu=4)
        cu.enqueue_workgroup([(0, w, progs[w]) for w in range(4)])
        cu.try_dispatch(0.0)
        cu.begin_epoch(0.0)
        t = 0.0
        while not cu.idle:
            t += 2.0
            cu.run_until(t, mem)
            assert cu._wave_pos == {wf.wf_id: i for i, wf in enumerate(cu.waves)}
        assert cu._wave_pos == {}

    def test_capture_restore_round_trip(self):
        b = ProgramBuilder()
        top = b.label()
        b.emit(valu(), load(0.5, 0.5), waitcnt(0))
        b.loop_back(top, trips=300)
        prog = b.build()
        cu, mem = make_cu()
        enqueue(cu, prog, n_waves=3)
        cu.begin_epoch(0.0)
        cu.run_until(700.0, mem)
        state = cu.capture()
        mem_state = mem.capture()
        cu.run_until(1500.0, mem)
        first = (cu.stats.committed, [w.pc_idx for w in cu.waves], cu.now)
        cu.restore_capture(state)
        mem.restore_capture(mem_state)
        cu.run_until(1500.0, mem)
        assert (cu.stats.committed, [w.pc_idx for w in cu.waves], cu.now) == first


def restored(cu, mem):
    """Clones of ``cu`` and ``mem``: fresh ones restored from their captures."""
    cu2 = ComputeUnit(cu.cu_id, cu.config)
    cu2.restore_capture(cu.capture())
    mem2 = MemorySubsystem(mem.config)
    mem2.restore_capture(mem.capture())
    return cu2, mem2


class TestClone:
    def test_clone_runs_identically(self):
        b = ProgramBuilder()
        top = b.label()
        b.emit(valu(), load(0.5, 0.5), waitcnt(0), valu())
        b.loop_back(top, trips=200)
        prog = b.build()
        cu, mem = make_cu()
        enqueue(cu, prog, n_waves=3)
        cu.begin_epoch(0.0)
        cu.run_until(700.0, mem)
        cu2, mem2 = restored(cu, mem)
        cu.run_until(1500.0, mem)
        cu2.run_until(1500.0, mem2)
        assert cu.stats.committed == cu2.stats.committed
        assert [w.pc_idx for w in cu.waves] == [w.pc_idx for w in cu2.waves]

    def test_clone_isolated(self):
        cu, mem = make_cu()
        enqueue(cu, compute_program(100), n_waves=2)
        cu.begin_epoch(0.0)
        snap, _ = restored(cu, mem)
        cu.run_until(1000.0, mem)
        assert snap.stats.committed == 0
        assert all(wf.committed == 0 for wf in snap.waves)
