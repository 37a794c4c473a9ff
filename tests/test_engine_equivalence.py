"""Event engine vs reference engine: bit-identical results, fewer scans.

The event-driven fast path in :mod:`repro.gpu.cu` must reproduce the
pre-change per-cycle scheduler *exactly* - same floats, same commit
counts, same residency - for every workload class. The reference loop is
kept in-tree (``GpuConfig.engine = "reference"``) precisely so these
golden-trace comparisons never rot.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    GpuConfig,
    MemoryConfig,
    default_frequency_grid,
    small_config,
    transition_latency_ns,
)
from repro.dvfs.designs import make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.workloads import build_workload, workload

from helpers import make_loop_program, programs

#: One representative per workload class (HPC compute, HPC memory,
#: MI GEMM, MI layer op) - see repro.workloads.suite.
WORKLOADS = ("comd", "xsbench", "dgemm", "BwdBN")


def engine_pair(base_cfg):
    return (
        replace(base_cfg, gpu=replace(base_cfg.gpu, engine="event")),
        replace(base_cfg, gpu=replace(base_cfg.gpu, engine="reference")),
    )


def cu_state(gpu):
    """Everything scheduling-visible, compared with exact ==."""
    return [
        (
            cu.now,
            cu.stats.committed,
            cu.stats.core_busy_ns,
            cu.stats.issued,
            tuple(
                (wf.wf_id, wf.pc_idx, wf.ready_at, wf.blocked, wf.outstanding,
                 wf.stats.committed, wf.stats.stall_ns)
                for wf in cu.waves
            ),
            tuple(cu.completions),
            tuple(cu.pending_workgroups),
        )
        for cu in gpu.cus
    ]


def result_signature(r):
    return (
        r.delay_ns,
        r.energy.total,
        r.energy.cu_dynamic_and_leakage,
        r.energy.memory,
        r.energy.transitions,
        r.total_committed,
        r.epochs,
        r.completed,
        r.prediction_accuracy,
        r.pc_hit_ratio,
        r.total_transitions,
        tuple(sorted(r.frequency_residency.items())),
    )


class TestLockstep:
    """Epoch-by-epoch state equality on the raw GPU (no controller)."""

    @pytest.mark.parametrize("with_barrier", [False, True])
    def test_loop_kernel_lockstep(self, tiny_config, with_barrier):
        prog = make_loop_program(trips=2000, with_barrier=with_barrier)
        kern = Kernel.homogeneous(prog, WorkgroupGeometry(6, 2))
        cfg_e, cfg_r = engine_pair(tiny_config)
        ge, gr = Gpu(cfg_e.gpu), Gpu(cfg_r.gpu)
        ge.load_kernel(kern)
        gr.load_kernel(kern)
        for _ in range(25):
            ge.run_epoch(1000.0)
            gr.run_epoch(1000.0)
            assert cu_state(ge) == cu_state(gr)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_workload_lockstep(self, tiny_config, name):
        kern = build_workload(workload(name), scale=0.15)[0]
        cfg_e, cfg_r = engine_pair(tiny_config)
        ge, gr = Gpu(cfg_e.gpu), Gpu(cfg_r.gpu)
        ge.load_kernel(kern)
        gr.load_kernel(kern)
        for _ in range(30):
            ge.run_epoch(1000.0)
            gr.run_epoch(1000.0)
        assert cu_state(ge) == cu_state(gr)


class TestLongTransitions:
    def test_transition_longer_than_quantum_lockstep(self, tiny_config):
        """10 us epochs with the paper's 40 ns transition and a new
        frequency every epoch: each CU starts the epoch's first
        quanta past their end (the transition outlasts the 10 ns sync
        quantum), and the event engine must still match the reference
        state after every epoch. Both engines cut such a transition to
        one quantum, a known fidelity bug (DESIGN §3c): this test pins
        their agreement, not that behaviour."""
        kern = build_workload(workload("comd"), scale=0.3)[0]
        cfg_e, cfg_r = engine_pair(tiny_config)
        ge, gr = Gpu(cfg_e.gpu), Gpu(cfg_r.gpu)
        ge.load_kernel(kern)
        gr.load_kernel(kern)
        grid = default_frequency_grid()
        latency = transition_latency_ns(10_000.0)
        assert latency > tiny_config.gpu.sync_quantum_ns
        for epoch in range(8):
            freqs = [grid[(3 * epoch + d) % len(grid)] for d in range(tiny_config.gpu.n_domains)]
            for gpu in (ge, gr):
                assert gpu.set_domain_frequencies(freqs, transition_latency_ns=latency)
            results = [gpu.run_epoch(10_000.0) for gpu in (ge, gr)]
            assert [cu.capture() for cu in ge.cus] == [cu.capture() for cu in gr.cus]
            assert ge.memory.capture() == gr.memory.capture()
            assert results[0].cu_stats == results[1].cu_stats
        assert not ge.done  # the comparison covered a busy GPU throughout


@st.composite
def gpu_runs(draw):
    """A small GPU, 1-3 kernels of generated programs loaded back to
    back, a schedule of (epoch length, per-domain grid frequency) and a
    V/f transition latency.

    A 40 ns transition outlasts a 5-25 ns sync quantum, so CUs start
    quanta past their end; the low thrash threshold converts L2 hits to
    misses in most examples that miss L1."""
    waves_per_cu = draw(st.integers(1, 8))
    gpu = GpuConfig(
        n_cus=draw(st.integers(1, 3)),
        waves_per_cu=waves_per_cu,
        issue_width=draw(st.integers(1, 3)),
        memory=MemoryConfig(
            n_l2_banks=2,
            l2_thrash_rate_per_ns=draw(st.sampled_from((MemoryConfig.l2_thrash_rate_per_ns, 0.05))),
        ),
        sync_quantum_ns=draw(st.sampled_from((5.0, 10.0, 25.0))),
    )
    kernels = [
        Kernel(
            tuple(draw(st.lists(programs(), min_size=1, max_size=2))),
            WorkgroupGeometry(draw(st.integers(1, 6)), draw(st.integers(1, waves_per_cu))),
            name=f"k{k}",
        )
        for k in range(draw(st.integers(1, 3)))
    ]
    freqs = st.tuples(*[st.sampled_from(default_frequency_grid())] * gpu.n_domains)
    schedule = draw(st.lists(
        st.tuples(st.sampled_from((50.0, 200.0, 1000.0)), freqs), min_size=1, max_size=12
    ))
    return gpu, kernels, schedule, draw(st.sampled_from((0.0, 4.0, 40.0)))


class TestGeneratedPrograms:
    """Lockstep over generated programs and platforms: several kernels,
    issue widths 1-3, tiny epochs and a V/f change almost every epoch."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(run=gpu_runs())
    def test_event_engine_matches_reference_every_epoch(self, run):
        gpu_cfg, kernels, schedule, latency_ns = run
        ge = Gpu(replace(gpu_cfg, engine="event"))
        gr = Gpu(replace(gpu_cfg, engine="reference"))
        for gpu in (ge, gr):
            for kern in kernels:
                gpu.load_kernel(kern)
        for epoch_ns, freqs in schedule:
            results = []
            for gpu in (ge, gr):
                gpu.set_domain_frequencies(freqs, transition_latency_ns=latency_ns)
                results.append(gpu.run_epoch(epoch_ns))
            # CU capture: clock, waves (state + stats), pending
            # workgroups, completions heap, barrier counts, CU stats.
            assert [cu.capture() for cu in ge.cus] == [cu.capture() for cu in gr.cus]
            assert ge.memory.capture() == gr.memory.capture()
            assert results[0].cu_stats == results[1].cu_stats


class TestGoldenRuns:
    """Full DVFS runs (controller + oracle) must be bit-identical."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_run_result_bit_identical(self, name):
        # PCSTALL samples no oracle without a recorder; ACCPC is fed the
        # elapsed epoch's truth, so it keeps the oracle path compared.
        for design in ("PCSTALL", "ACCPC"):
            results = {}
            for cfg in engine_pair(small_config(n_cus=2, waves_per_cu=4)):
                kernels = build_workload(workload(name), scale=0.15)
                ctrl = make_controller(design, cfg)
                sim = DvfsSimulation(
                    kernels, ctrl, cfg, design_name=design, workload_name=name,
                    collect_accuracy=True, max_epochs=40, oracle_sample_freqs=3,
                )
                results[cfg.gpu.engine] = sim.run()
            assert result_signature(results["event"]) == result_signature(
                results["reference"]
            ), design

    def test_static_design_bit_identical(self):
        results = {}
        for cfg in engine_pair(small_config(n_cus=2, waves_per_cu=4)):
            kernels = build_workload(workload("comd"), scale=0.15)
            ctrl = make_controller("STATIC@1.7", cfg)
            sim = DvfsSimulation(
                kernels, ctrl, cfg, design_name="STATIC@1.7", workload_name="comd",
                max_epochs=40, oracle_sample_freqs=3,
            )
            results[cfg.gpu.engine] = sim.run()
        assert result_signature(results["event"]) == result_signature(
            results["reference"]
        )


class TestScanReduction:
    def test_event_engine_scans_at_least_3x_fewer_waves(self):
        """The headline win: on the experiment drivers' platform the
        ready-queue + batching cut wavefront-scan events >= 3x (measured
        5.5x-37x per workload at small_config defaults)."""
        scans = {}
        for cfg in engine_pair(small_config()):
            kernels = build_workload(workload("comd"), scale=0.3)
            ctrl = make_controller("PCSTALL", cfg)
            sim = DvfsSimulation(
                kernels, ctrl, cfg, design_name="PCSTALL", workload_name="comd",
                max_epochs=25, oracle_sample_freqs=3,
            )
            r = sim.run()
            scans[cfg.gpu.engine] = r.hotpath["waves_scanned"]
        assert scans["reference"] >= 3 * scans["event"]

    def test_event_engine_clones_nothing_per_sample(self):
        """Oracle sampling restores into a persistent scratch GPU: zero
        clone bytes, while the reference path clones per sample."""
        hot = {}
        for cfg in engine_pair(small_config(n_cus=2, waves_per_cu=4)):
            kernels = build_workload(workload("comd"), scale=0.15)
            ctrl = make_controller("ACCPC", cfg)
            sim = DvfsSimulation(
                kernels, ctrl, cfg, design_name="ACCPC", workload_name="comd",
                collect_accuracy=True, max_epochs=20, oracle_sample_freqs=3,
            )
            hot[cfg.gpu.engine] = sim.run().hotpath
        assert hot["event"]["clone_bytes"] == 0
        assert hot["event"]["snapshot_bytes"] > 0
        assert hot["reference"]["clone_bytes"] > hot["event"]["snapshot_bytes"]


class TestEngineConfig:
    def test_unknown_engine_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="engine"):
            replace(tiny_config.gpu, engine="warp-speed")

    def test_engine_flows_into_cache_key(self, tiny_config):
        from repro.runtime import SweepTask, task_key

        keys = {
            cfg.gpu.engine: task_key(
                SweepTask("comd", "PCSTALL", cfg).cache_fields()
            )
            for cfg in engine_pair(tiny_config)
        }
        assert keys["event"] != keys["reference"]
