"""Hot-path profiling: counters, collection, CLI surface."""

import json

import pytest

from repro.cli import main
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.runtime import HotPathCounters, collect_hotpath
from repro.runtime.profiling import collect_gpu
from repro.runtime.progress import SOURCE_SERIAL, CellRecord, SweepInstrumentation

from helpers import make_loop_program


class TestHotPathCounters:
    def test_merge_adds_fieldwise(self):
        a = HotPathCounters(cycles=3, waves_scanned=10)
        a.merge({"cycles": 2, "snapshot_bytes": 7})
        assert a.cycles == 5
        assert a.waves_scanned == 10
        assert a.snapshot_bytes == 7


class TestCollection:
    def test_collect_gpu_counts_work(self, tiny_config):
        gpu = Gpu(tiny_config.gpu)
        gpu.load_kernel(
            Kernel.homogeneous(make_loop_program(trips=500), WorkgroupGeometry(4, 2))
        )
        gpu.run_epoch(1000.0)
        counters = collect_gpu(gpu)
        assert counters.cycles > 0
        assert counters.waves_scanned > 0
        assert counters.completions_delivered > 0

    def test_collect_hotpath_without_sampler(self, tiny_config):
        gpu = Gpu(tiny_config.gpu)
        gpu.load_kernel(
            Kernel.homogeneous(make_loop_program(trips=200), WorkgroupGeometry(4, 2))
        )
        gpu.run_epoch(1000.0)
        hp = collect_hotpath(gpu)
        assert hp["oracle_samples"] == 0
        assert hp["cycles"] == collect_gpu(gpu).cycles

    def test_snapshot_byte_accounting(self, tiny_config):
        gpu = Gpu(tiny_config.gpu)
        gpu.load_kernel(
            Kernel.homogeneous(make_loop_program(trips=200), WorkgroupGeometry(4, 2))
        )
        gpu.run_epoch(1000.0)
        snap = gpu.snapshot()
        assert gpu.ctr_snapshots == 1
        assert snap.nbytes == gpu.ctr_snapshot_bytes == gpu.state_nbytes() > 0


class TestSweepAggregation:
    def test_hotpath_totals_merge_across_cells(self):
        instr = SweepInstrumentation()
        instr.record_cell(
            CellRecord("a/X", 1.0, SOURCE_SERIAL, hotpath={"cycles": 5})
        )
        instr.record_cell(
            CellRecord("b/X", 1.0, SOURCE_SERIAL,
                       hotpath={"cycles": 7, "snapshots": 2, "not_a_counter": 99})
        )
        totals = instr.hotpath_totals()
        assert totals["cycles"] == 12
        assert totals["snapshots"] == 2
        # Every counter, in field order; unknown keys are ignored.
        assert list(totals) == list(HotPathCounters().as_dict())
        assert "hotpath: cycles" in instr.summary()

    def test_hotpath_totals_empty_without_counters(self):
        instr = SweepInstrumentation()
        instr.record_cell(CellRecord("a/X", 1.0, SOURCE_SERIAL))
        assert instr.hotpath_totals() == {}


class TestTraceIo:
    def test_run_json_carries_hotpath(self, tmp_path):
        from repro.analysis.trace_io import save_run_json
        from repro.config import small_config
        from repro.dvfs.designs import make_controller
        from repro.dvfs.simulation import DvfsSimulation

        cfg = small_config(n_cus=2, waves_per_cu=4)
        ks = [Kernel.homogeneous(make_loop_program(trips=500), WorkgroupGeometry(4, 2))]
        r = DvfsSimulation(
            ks, make_controller("STALL", cfg), cfg, max_epochs=30,
            oracle_sample_freqs=3,
        ).run()
        path = tmp_path / "run.json"
        save_run_json(r, path)
        data = json.loads(path.read_text())
        assert data["hotpath"]["cycles"] > 0


class TestCli:
    def test_engine_flag_switches_engines(self, capsys, tmp_path):
        """``run --engine`` picks the timing engine: the summary records
        it, and the reference loop scans more waves for the same cell."""
        scans = {}
        for engine in ("event", "reference"):
            path = tmp_path / f"{engine}.json"
            assert main([
                "run", "comd", "--cus", "2", "--waves", "4", "--scale", "0.1",
                "--max-epochs", "10", "--engine", engine, "--no-cache",
                "--json", str(path),
            ]) == 0
            data = json.loads(path.read_text())
            assert data["meta"]["engine"] == engine
            scans[engine] = data["hotpath"]["waves_scanned"]
        assert scans["reference"] > scans["event"]


#: Hot-path counters of a fixed grid, in ``HotPathCounters`` field order,
#: and the SHA-256 of the canonical results with the hot-path counts and
#: ``prediction_accuracy`` left out. Recorded before the CU stepper and
#: the inlined memory-op path landed: a faster engine must do exactly the
#: same work, not only get the same results. ``prediction_accuracy`` is a
#: builtin ``sum()`` over floats, whose last bits changed in Python 3.12
#: (compensated summation), so it is checked against the reference engine
#: in the same process instead of being pinned. ``snapshot_bytes`` was
#: re-recorded when the wave capture lost five dead counters (it is
#: ``capture_nbytes``' estimate of what a snapshot holds, not work done).
PINNED_FIELDS = (
    "cycles", "waves_scanned", "batched_instructions", "completions_delivered",
    "snapshots", "snapshot_bytes", "restores", "oracle_samples", "oracle_cycles",
)
PINNED_HOTPATH = {
    "xsbench/STATIC@1.7": (23819, 8749, 1875, 3840, 0, 0, 0, 0, 0),
    "xsbench/PCSTALL": (23655, 8810, 1814, 3840, 0, 0, 0, 0, 0),
    "xsbench/ORACLE": (23675, 43741, 9522, 19228, 25, 601400, 100, 25, 95523),
    "dgemm/STATIC@1.7": (12468, 15537, 56, 272, 0, 0, 0, 0, 0),
    "dgemm/PCSTALL": (11572, 15534, 57, 272, 0, 0, 0, 0, 0),
    "dgemm/ORACLE": (11064, 73620, 217, 1315, 2, 16112, 8, 2, 42056),
    "comd/STATIC@1.7": (23272, 18293, 2155, 2432, 0, 0, 0, 0, 0),
    "comd/PCSTALL": (22388, 18522, 1926, 2432, 0, 0, 0, 0, 0),
    "comd/ORACLE": (22851, 94253, 12294, 12801, 7, 122544, 28, 7, 98228),
}
PINNED_DIGEST = "ab219d1069652bdc5f8e383eea179291499b92ffa49ed687e949f5329ac6bf78"


class TestPinnedWork:
    def test_grid_work_and_results_match_recorded_values(self):
        import hashlib
        from dataclasses import replace

        from repro.config import small_config
        from repro.runtime.cache import canonicalize
        from repro.runtime.executor import SweepTask, run_task

        config = small_config(seed=7)
        reference = replace(config, gpu=replace(config.gpu, engine="reference"))
        canonical = []
        for label, row in PINNED_HOTPATH.items():
            workload, design = label.split("/")
            result = run_task(SweepTask(workload, design, config, scale=0.05,
                                        oracle_sample_freqs=4))
            assert result.hotpath == dict(zip(PINNED_FIELDS, row)), label
            if result.prediction_accuracy is not None:
                golden = run_task(SweepTask(workload, design, reference, scale=0.05,
                                            oracle_sample_freqs=4))
                assert result.prediction_accuracy == golden.prediction_accuracy, label
            canonical.append(
                canonicalize(replace(result, hotpath=None, prediction_accuracy=None))
            )
        blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == PINNED_DIGEST

    def test_class_level_request_wrapper_sees_every_miss(self, monkeypatch):
        """The benchmark counts ``gpu.memory.requests`` by replacing
        ``MemorySubsystem.request`` on the class; the engine must call
        that attribute once per L1 miss, not a private twin."""
        from repro.config import small_config
        from repro.gpu.memory import MemorySubsystem
        from repro.workloads import build_workload, workload

        calls = []
        request = MemorySubsystem.request

        def counted(self, *args, **kwargs):
            calls.append(1)
            return request(self, *args, **kwargs)

        monkeypatch.setattr(MemorySubsystem, "request", counted)
        gpu = Gpu(small_config(n_cus=2, waves_per_cu=4).gpu)
        gpu.load_kernel(build_workload(workload("xsbench"), scale=0.1)[0])
        for _ in range(5):
            gpu.run_epoch(1000.0)
        assert gpu.memory.request_counter > 0
        assert len(calls) == gpu.memory.request_counter
