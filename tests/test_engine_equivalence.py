"""Event engine vs reference engine: bit-identical results, fewer scans.

The event-driven fast path in :mod:`repro.gpu.cu` must reproduce the
pre-change per-cycle scheduler *exactly* - same floats, same commit
counts, same residency - for every workload class. The reference loop is
kept in-tree (``GpuConfig.engine = "reference"``) precisely so these
golden-trace comparisons never rot.
"""

from dataclasses import replace

import pytest

from repro.config import small_config
from repro.dvfs.designs import make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.workloads import build_workload, workload

from helpers import make_loop_program

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
