"""Cross-module integration and system-level invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.core import EDnPObjective
from repro.dvfs.designs import make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.gpu.gpu import Gpu
from repro.gpu.isa import (
    InstructionKind,
    Program,
    barrier,
    branch,
    endpgm,
    load,
    salu,
    valu,
    waitcnt,
)
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.workloads import build_workload, workload


@pytest.fixture(scope="module")
def cfg():
    return small_config(n_cus=2, waves_per_cu=4)


def run_design(cfg, design, wl="BwdBN", scale=0.2, collect_accuracy=False):
    kernels = build_workload(workload(wl), scale=scale)
    ctrl = make_controller(design, cfg, EDnPObjective(2))
    return DvfsSimulation(
        kernels, ctrl, cfg, design_name=design, max_epochs=300,
        oracle_sample_freqs=4, collect_accuracy=collect_accuracy,
    ).run()


class TestPaperHeadlines:
    """The qualitative claims the paper stands on."""

    def test_pcstall_more_accurate_than_reactive_on_phase_heavy_app(self, cfg):
        pc = run_design(cfg, "PCSTALL", collect_accuracy=True)
        crisp = run_design(cfg, "CRISP", collect_accuracy=True)
        assert pc.prediction_accuracy > crisp.prediction_accuracy

    def test_work_is_conserved_across_designs(self, cfg):
        """Different DVFS policies run the same program: total committed
        instructions must be identical once the run completes."""
        totals = {
            d: run_design(cfg, d).total_committed
            for d in ("STATIC@1.3", "STATIC@2.2", "PCSTALL")
        }
        assert len(set(totals.values())) == 1, totals

    def test_memory_bound_app_prefers_low_frequency(self, cfg):
        r = run_design(cfg, "PCSTALL", wl="xsbench")
        low_share = sum(v for f, v in r.frequency_residency.items() if f <= 1.5)
        assert low_share > 0.7

    def test_dvfs_never_much_worse_than_reference(self, cfg):
        base = run_design(cfg, "STATIC@1.7")
        pc = run_design(cfg, "PCSTALL")
        assert pc.ed2p < base.ed2p * 1.15


class TestSnapshotIsolation:
    def test_oracle_designs_leave_no_trace(self, cfg):
        """An oracle-sampling design must execute the same work as its
        non-sampling twin - forks may not perturb the parent."""
        a = run_design(cfg, "STATIC@1.7")
        ctrl = make_controller("STATIC@1.7", cfg)
        b = DvfsSimulation(
            build_workload(workload("BwdBN"), scale=0.2), ctrl, cfg,
            max_epochs=300, collect_accuracy=False,
        ).run()
        assert a.total_committed == b.total_committed
        assert a.delay_ns == pytest.approx(b.delay_ns)


# ----------------------------------------------------------------------
# Property-based robustness: random programs never deadlock or crash.


@st.composite
def random_programs(draw):
    body = []
    n = draw(st.integers(3, 25))
    outstanding_possible = False
    for _ in range(n):
        kind = draw(st.sampled_from(["valu", "salu", "load", "store", "wait"]))
        if kind == "valu":
            body.append(valu(draw(st.integers(1, 6))))
        elif kind == "salu":
            body.append(salu())
        elif kind == "load":
            body.append(load(draw(st.floats(0, 1)), draw(st.floats(0, 1))))
            outstanding_possible = True
        elif kind == "store":
            from repro.gpu.isa import store

            body.append(store(draw(st.floats(0, 1)), draw(st.floats(0, 1))))
            outstanding_possible = True
        else:
            body.append(waitcnt(draw(st.integers(0, 2))))
    if outstanding_possible:
        body.append(waitcnt(0))
    trips = draw(st.integers(0, 6))
    if trips:
        body.append(branch(0, trips))
    body.append(endpgm())
    return Program(tuple(body), name="random")


class TestRandomPrograms:
    @given(program=random_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_program_terminates(self, program):
        cfg = small_config(n_cus=2, waves_per_cu=4)
        gpu = Gpu(cfg.gpu, 1.7)
        gpu.load_kernel(Kernel.homogeneous(program, WorkgroupGeometry(2, 2)))
        for _ in range(3000):
            if gpu.done:
                break
            gpu.run_epoch(1000.0)
        assert gpu.done

    @given(program=random_programs(), freq=st.sampled_from([1.3, 1.7, 2.2]))
    @settings(max_examples=15, deadline=None)
    def test_random_program_clone_replay(self, program, freq):
        cfg = small_config(n_cus=2, waves_per_cu=4)
        gpu = Gpu(cfg.gpu, freq)
        gpu.load_kernel(Kernel.homogeneous(program, WorkgroupGeometry(2, 2)))
        gpu.run_epoch(500.0)
        snap = gpu.clone()
        a = gpu.run_epoch(700.0)
        b = snap.run_epoch(700.0)
        assert [s.committed for s in a.cu_stats] == [s.committed for s in b.cu_stats]


class TestBarrierWorkloads:
    def test_barrier_program_under_dvfs(self, cfg):
        body = [valu(), valu(), load(0.5, 0.5), waitcnt(0), barrier()]
        program = Program(tuple(body) + (branch(0, 20), endpgm()))
        kernels = [Kernel.homogeneous(program, WorkgroupGeometry(4, 2))]
        ctrl = make_controller("PCSTALL", cfg, EDnPObjective(2))
        r = DvfsSimulation(kernels, ctrl, cfg, max_epochs=500).run()
        assert r.total_committed > 0
        assert r.epochs < 500  # finished, no deadlock
