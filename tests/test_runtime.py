"""Parallel sweep executor, on-disk result cache, instrumentation."""

import dataclasses
import json
import logging
import math
import multiprocessing
import os
import pickle
import shutil
import socket
import sys
import threading

import pytest

from repro.analysis.trace_io import run_result_to_dict
from repro.config import small_config
from repro.core.objectives import EDnPObjective, PerformanceCapObjective
from repro.runtime.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    canonicalize,
    describe_objective,
    task_key,
)
from repro.runtime.executor import (
    NO_RETRY,
    FailedCell,
    RetryPolicy,
    SweepExecutor,
    SweepTask,
    SweepTimeoutError,
    run_task,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.progress import SOURCE_CACHE, CellRecord, SweepInstrumentation

from helpers import SRC, make_run_result, run_fresh


CFG = small_config(n_cus=2, waves_per_cu=4)


def make_task(workload="comd", design="STATIC@1.7", scale=0.1, max_epochs=60, **kw):
    return SweepTask(
        workload=workload, design=design, config=CFG, scale=scale,
        max_epochs=max_epochs, oracle_sample_freqs=3, **kw
    )


GRID = [
    make_task(w, d)
    for w in ("comd", "xsbench")
    for d in ("STATIC@1.7", "PCSTALL")
]


class TestCacheKey:
    def test_identical_tasks_same_key(self):
        assert make_task().key() == make_task().key()

    def test_each_field_changes_key(self):
        base = make_task().key()
        assert make_task(workload="xsbench").key() != base
        assert make_task(design="STALL").key() != base
        assert make_task(scale=0.2).key() != base
        assert make_task(max_epochs=61).key() != base
        assert make_task(collect_accuracy=True).key() != base

    def test_config_change_changes_key(self):
        cfg2 = dataclasses.replace(
            CFG, dvfs=dataclasses.replace(CFG.dvfs, epoch_ns=2000.0)
        )
        changed = SweepTask("comd", "STATIC@1.7", cfg2, scale=0.1, max_epochs=60,
                            oracle_sample_freqs=3)
        assert changed.key() != make_task().key()

    def test_objective_state_changes_key(self):
        a = make_task(objective=EDnPObjective(1)).key()
        b = make_task(objective=EDnPObjective(2)).key()
        c = make_task(objective=PerformanceCapObjective(0.05)).key()
        assert len({a, b, c, make_task().key()}) == 4

    def test_objective_description_is_stable(self):
        assert describe_objective(EDnPObjective(2)) == describe_objective(
            EDnPObjective(2)
        )
        assert describe_objective(None) is None

    def test_key_is_hex_digest(self):
        key = task_key({"x": 1})
        assert len(key) == 64
        int(key, 16)


def save_models(root, seeds=(0, 1)):
    """Train one tiny ridge model per seed into a registry; their ids."""
    import numpy as np

    from repro.learn.features import FEATURE_NAMES
    from repro.learn.models import RidgeModel
    from repro.learn.registry import ModelRegistry

    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, len(FEATURE_NAMES)))
    y = np.column_stack([100.0 + 10.0 * x[:, 0], 50.0 + 5.0 * x[:, 1]])
    registry = ModelRegistry(root)
    return registry, [
        registry.save(RidgeModel.train(x, y, seed=seed), {"dataset_hash": "synthetic"})
        for seed in seeds
    ]


class TestCodeVersion:
    """Cache keys follow the sources a cell runs and the model it loads."""

    def test_a_cell_of_every_design_loads_only_hashed_modules(self, tmp_path):
        registry, (artifact, _) = save_models(tmp_path / "models")
        registry.set_ref("m", artifact)
        run_fresh(
            "import pathlib, sys\n"
            "from repro.config import small_config\n"
            "from repro.dvfs.designs import DESIGN_NAMES, EXTENSION_DESIGNS\n"
            "from repro.runtime.cache import ResultCache, cell_source_files\n"
            "from repro.runtime.executor import SweepExecutor, SweepTask\n"
            "designs = [d for d in DESIGN_NAMES + EXTENSION_DESIGNS if d != 'LEARNED']\n"
            "designs += ['STATIC@1.7', 'LEARNED@m']\n"
            "config = small_config(n_cus=2, waves_per_cu=4)\n"
            "tasks = [SweepTask('dgemm', d, config, scale=0.05, max_epochs=30,\n"
            "                   oracle_sample_freqs=3) for d in designs]\n"
            "results = SweepExecutor(cache=ResultCache(sys.argv[1])).run(tasks)\n"
            "assert [r.design for r in results] == designs\n"
            "hashed = set(cell_source_files())\n"
            "outside = sorted(name for name, module in sys.modules.items()\n"
            "                 if name.split('.')[0] == 'repro'\n"
            "                 and pathlib.Path(module.__file__).resolve() not in hashed)\n"
            "assert not outside, outside\n",
            tmp_path / "cache",
            REPRO_MODEL_DIR=str(tmp_path / "models"),
        )

    def test_key_changes_with_a_hashed_source_byte(self, tmp_path):
        code = (
            "from repro.config import small_config\n"
            "from repro.runtime.executor import SweepTask\n"
            "print(SweepTask('dgemm', 'PCSTALL', small_config()).key())\n"
        )

        def key_of_copy(name, edit=None):
            root = tmp_path / name
            shutil.copytree(SRC / "repro", root / "repro",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if edit is not None:  # swap the case of one docstring letter
                path = root / "repro" / edit
                data = bytearray(path.read_bytes())
                i = data.index(b'"""') + 3
                assert chr(data[i]).isalpha()
                data[i] ^= 0x20
                path.write_bytes(bytes(data))
            return run_fresh(code, pythonpath=root)

        key = run_fresh(code)
        assert key_of_copy("same") == key
        assert key_of_copy("engine", "gpu/cu.py") != key
        assert key_of_copy("learn", "learn/models.py") != key
        assert key_of_copy("cli", "cli.py") == key
        assert key_of_copy("analysis", "analysis/report.py") == key

    def test_learned_key_follows_the_name_to_its_artifact(self, tmp_path, monkeypatch):
        registry, (first, second) = save_models(tmp_path)
        monkeypatch.setenv("REPRO_MODEL_DIR", str(tmp_path))
        registry.set_ref("rls", first)
        before = make_task(design="LEARNED@rls").key()
        registry.set_ref("rls", second)  # "retrained"
        after = make_task(design="LEARNED@rls").key()
        assert after != before
        registry.set_ref("rls", first)
        assert make_task(design="LEARNED@rls").key() == before
        # An unknown name still keys (the cell fails when it runs).
        assert make_task(design="LEARNED@nope").key() != before


class TestResultCache:
    def test_empty_cache_dir_env_means_unset(self, monkeypatch):
        from repro.runtime.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, default_cache_dir

        monkeypatch.setenv(CACHE_DIR_ENV, "")
        assert default_cache_dir() == __import__("pathlib").Path(DEFAULT_CACHE_DIR)

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", make_run_result())
        assert cache.get("k") == make_run_result()

    def test_real_results_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        for task in GRID:
            result = run_task(task)
            cache.put(task.key(), result)
            again = cache.get(task.key())
            assert again == result
            assert canonicalize(again) == canonicalize(result)

    def test_entries_are_json_files_only(self, tmp_path):
        assert CACHE_FORMAT_VERSION == 3
        cache = ResultCache(tmp_path)
        cache.put("k", make_run_result())
        assert sorted(p.name for p in tmp_path.iterdir()) == [cache.path_for("k").name]
        assert json.loads(cache.path_for("k").read_text())["design"] == "PCSTALL"

    def test_missing_key_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None

    def test_corrupted_entry_recomputes_not_crashes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", make_run_result())
        cache.path_for("k").write_bytes(b"\x80\xffnot json\x00")
        assert cache.get("k") is None

    def test_truncated_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", make_run_result())
        blob = cache.path_for("k").read_bytes()
        cache.path_for("k").write_bytes(blob[: len(blob) // 2])
        assert cache.get("k") is None

    def test_old_pickle_at_the_new_path_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("k").write_bytes(pickle.dumps(make_run_result()))
        assert cache.get("k") is None

    @pytest.mark.parametrize("result", [
        make_run_result(delay_ns=math.nan),
        make_run_result(prediction_accuracy=math.inf),
        make_run_result(epochs=12.0),
        {"not": "a result"},
    ])
    def test_refused_result_caches_nothing(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put("k", result)  # no raise: refused like a failed write
        assert list(tmp_path.iterdir()) == []
        assert cache.get("k") is None

    def test_corrupted_cell_recomputed_by_executor(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        first = SweepExecutor(cache=cache).run_one(task)
        cache.path_for(task.key()).write_bytes(b"\x80garbage")
        again = SweepExecutor(cache=ResultCache(tmp_path)).run_one(task)
        assert first == again


class TestExecutor:
    def test_run_one_matches_direct_run(self):
        direct = run_task(make_task())
        via_executor = SweepExecutor().run_one(make_task())
        assert direct == via_executor

    def test_parallel_results_bit_identical_to_serial(self):
        serial = SweepExecutor(max_workers=1).run(GRID)
        parallel = SweepExecutor(max_workers=2).run(GRID)
        for s, p in zip(serial, parallel):
            assert s == p
            assert s.delay_ns == p.delay_ns
            assert s.energy.total == p.energy.total
        assert json.dumps(canonicalize(parallel)) == json.dumps(canonicalize(serial))

    def test_result_order_matches_task_order(self):
        results = SweepExecutor(max_workers=2).run(GRID)
        for task, result in zip(GRID, results):
            assert result.workload == task.workload
            assert result.design == task.design

    def test_rerun_hits_cache_with_identical_results(self, tmp_path):
        first = SweepExecutor(max_workers=2, cache=ResultCache(tmp_path)).run(GRID)
        rerun = SweepExecutor(max_workers=2, cache=ResultCache(tmp_path))
        second = rerun.run(GRID)
        assert rerun.progress.cache_hits == len(GRID)
        assert rerun.progress.cache_misses == 0
        for a, b in zip(first, second):
            assert a == b

    def test_an_unpicklable_grid_runs_on_workers(self):
        """Workers inherit their tasks at fork, so an objective that no
        wire form or pickle carries reaches them intact."""
        obj = EDnPObjective(2)
        obj.hook = lambda: None  # lambdas cannot be pickled
        tasks = [make_task(design="STALL", objective=obj),
                 make_task(workload="xsbench", design="STALL", objective=obj)]
        ex = SweepExecutor(max_workers=2)
        assert ex.run(tasks) == SweepExecutor().run(tasks)
        assert [c.source for c in ex.progress.cells] == ["remote", "remote"]
        assert {c.attempts for c in ex.progress.cells} == {1}
        assert ex.progress.events == []

    def test_task_timeout_raises(self):
        # NO_RETRY restores the pre-retry contract: first timeout is fatal.
        slow = [make_task(scale=0.5, max_epochs=400),
                make_task(workload="xsbench", scale=0.5, max_epochs=400)]
        ex = SweepExecutor(max_workers=2, task_timeout_s=1e-4, retry=NO_RETRY)
        with pytest.raises(SweepTimeoutError):
            ex.run(slow)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(max_workers=0)


class TestSharedBuild:
    """run_task builds each (workload spec, scale) once per process."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import repro.workloads as workloads

        calls = []
        real = workloads.build_workload

        def counting(spec, scale=1.0):
            calls.append((spec.name, scale))
            return real(spec, scale=scale)

        monkeypatch.setattr(workloads, "build_workload", counting)
        return calls

    def test_repeated_cell_builds_once(self, builds, monkeypatch):
        from repro.workloads import WORKLOADS

        # A spec value no other test has run, so the memo starts cold.
        probe = dataclasses.replace(WORKLOADS["comd"], description="shared-build probe")
        monkeypatch.setitem(WORKLOADS, "comd", probe)
        first = run_task(make_task(design="PCSTALL"))
        second = run_task(make_task(design="PCSTALL"))
        assert builds == [("comd", 0.1)]
        assert first == second
        assert first.hotpath == second.hotpath
        run_task(make_task(design="PCSTALL", scale=0.05))
        assert builds == [("comd", 0.1), ("comd", 0.05)]

    def test_memo_never_aliases_by_name(self, builds, monkeypatch):
        from repro.workloads import WORKLOADS

        before = run_task(make_task(design="PCSTALL"))
        n = len(builds)
        monkeypatch.setitem(
            WORKLOADS, "comd", dataclasses.replace(WORKLOADS["xsbench"], name="comd")
        )
        after = run_task(make_task(design="PCSTALL"))
        assert len(builds) == n + 1
        assert run_result_to_dict(after) != run_result_to_dict(before)


class TestInstrumentation:
    def test_counters_and_summary(self, tmp_path):
        cache = ResultCache(tmp_path)
        ex = SweepExecutor(cache=cache)
        ex.run(GRID[:2])
        prog = SweepInstrumentation(name="again")
        ex2 = SweepExecutor(cache=ResultCache(tmp_path), progress=prog)
        ex2.run(GRID[:2])
        assert prog.cache_hits == 2
        assert prog.cache_misses == 0
        text = prog.summary()
        assert "cache hits" in text
        assert "again" in text

    def test_all_hit_rerun_reports_no_work(self, tmp_path):
        """A re-run served from the cache did no simulation: its summary
        ranks no slowest cells and totals no hot-path work."""
        first = SweepExecutor(cache=ResultCache(tmp_path))
        first.run(GRID[:2])
        assert "slowest:" in first.progress.summary()
        assert "hotpath:" in first.progress.summary()
        again = SweepExecutor(cache=ResultCache(tmp_path))
        again.run(GRID[:2])
        assert again.progress.cache_hits == 2
        text = again.progress.summary()
        assert "slowest:" not in text
        assert "hotpath:" not in text
        assert again.progress.hotpath_totals() == {}

    def test_cell_records_track_source(self):
        prog = SweepInstrumentation()
        prog.record_cell(CellRecord("a/b", 0.0, SOURCE_CACHE))
        assert prog.cache_hits == 1
        assert prog.compute_s == 0.0

    def test_utilisation_bounded(self):
        prog = SweepInstrumentation(max_workers=4)
        prog.start()
        prog.record_cell(CellRecord("a/b", 1e6, "serial"))
        prog.finish()
        assert 0.0 <= prog.utilisation <= 1.0


class TestMetricsSink:
    """The sweep's counts, read off the records its instrumentation keeps."""

    def test_record_cell_feeds_registry(self):
        """Cache hits and misses are counted off the cells by source, and
        hot-path work is summed off the cells that report it."""
        prog = SweepInstrumentation()
        prog.record_cell(
            CellRecord("a/b", 0.5, "serial", hotpath={"cycles": 7})
        )
        prog.record_cell(CellRecord("c/d", 0.0, SOURCE_CACHE))
        prog.record_cell(CellRecord("e/f", 0.25, "remote"))
        assert len(prog.cells) == 3
        assert prog.cache_hits == 1
        assert prog.cache_misses == 2
        assert prog.hotpath_totals()["cycles"] == 7

    def test_parallel_sweep_counters_match_serial(self):
        """Cell and hot-path counts must be independent of how cells were
        scheduled; only the source labels may differ."""

        def work_counts(progress):
            return len(progress.cells), progress.hotpath_totals()

        serial = SweepExecutor(max_workers=1)
        serial.run(GRID)
        parallel = SweepExecutor(max_workers=2)
        parallel.run(GRID)
        assert work_counts(parallel.progress) == work_counts(serial.progress)

    def test_hotpath_to_registry_prefix(self):
        """A cell's hot-path counts sum across cells in
        ``hotpath_totals()``."""
        prog = SweepInstrumentation()
        prog.record_cell(
            CellRecord("a/b", 0.0, "serial", hotpath={"cycles": 3, "snapshots": 2})
        )
        prog.record_cell(CellRecord("c/d", 0.0, "serial", hotpath={"cycles": 4}))
        hotpath = prog.hotpath_totals()
        assert hotpath["cycles"] == 7
        assert hotpath["snapshots"] == 2


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        p = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3)
        assert p.delay_for(1) == 0.0  # first attempt is never delayed
        assert p.delay_for(2) == pytest.approx(0.1)
        assert p.delay_for(3) == pytest.approx(0.2)
        assert p.delay_for(4) == pytest.approx(0.3)  # capped
        assert p.delay_for(9) == pytest.approx(0.3)
        # Jitterless: the schedule is a pure function of the attempt.
        assert [p.delay_for(n) for n in range(1, 6)] == [
            p.delay_for(n) for n in range(1, 6)
        ]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(on_exhausted="explode")

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1

    def test_retryable_classification(self):
        from repro.runtime.faults import CorruptResultError, InjectedFaultError

        p = RetryPolicy()
        for exc in (InjectedFaultError("x"), CorruptResultError("x"),
                    SweepTimeoutError("x")):
            assert p.is_retryable(exc)
        assert not p.is_retryable(ValueError("x"))


#: Each cell's first attempt, which always runs on a worker, hangs past
#: the timeout; later attempts run normally.
HANG_EVERY_FIRST_ATTEMPT = FaultPlan((FaultSpec("*", "hang", attempts=1, hang_s=5.0),))


class TestBrokeredSweep:
    """``max_workers > 1`` forks workers into a private broker."""

    def test_workload_registered_in_the_parent_runs_in_workers(self, monkeypatch):
        from repro.workloads import WORKLOADS

        monkeypatch.setitem(
            WORKLOADS, "comd.parent",
            dataclasses.replace(WORKLOADS["comd"], name="comd.parent"),
        )
        tasks = [make_task("comd.parent", d) for d in ("STATIC@1.7", "PCSTALL")]
        serial = SweepExecutor().run(tasks)
        ex = SweepExecutor(max_workers=2)
        parallel = ex.run(tasks)
        assert parallel == serial
        assert [c.source for c in ex.progress.cells] == ["remote", "remote"]

    def test_timed_out_worker_takes_the_next_cell(self):
        ex = SweepExecutor(
            max_workers=2, task_timeout_s=0.3,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        with HANG_EVERY_FIRST_ATTEMPT:
            results = ex.run(GRID)
        assert results == SweepExecutor().run(GRID)
        retries = [e for e in ex.progress.events if e.startswith("retry ")]
        assert len(retries) == ex.progress.retries == len(GRID)
        assert all("(SweepTimeoutError)" in e for e in retries)
        # Nothing was killed or replaced: each worker timed out, stayed
        # connected, and workers computed every cell's second attempt.
        assert ex.progress.reclaims == 0
        assert not any("no worker left" in e for e in ex.progress.events)
        assert {(c.source, c.attempts) for c in ex.progress.cells} == {("remote", 2)}


    def test_more_workers_than_cores_record_each_cell_once(self):
        """Stress: oversubscribed workers and a short switch interval for
        the broker's threads must not lose or duplicate a cell."""
        tasks = [
            make_task(w, d, max_epochs=20)
            for w in ("comd", "xsbench", "hacc", "dgemm")
            for d in ("STATIC@1.7", "STALL", "PCSTALL")
        ]
        ex = SweepExecutor(max_workers=min(6, 2 * (os.cpu_count() or 1) + 1))
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sweep = threading.Thread(target=lambda: out.append(ex.run(tasks)))
            sweep.start()
            sweep.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not sweep.is_alive(), "sweep hung"
        assert out[0] == SweepExecutor().run(tasks)
        assert [c.source for c in ex.progress.cells] == ["remote"] * len(tasks)
        assert sorted(c.label for c in ex.progress.cells) == sorted(t.label for t in tasks)
        assert multiprocessing.active_children() == []

    def test_cells_run_in_process_when_no_worker_can_fork(self, monkeypatch):
        from multiprocessing.context import ForkProcess

        def refuse(proc):
            raise OSError("fork refused")

        monkeypatch.setattr(ForkProcess, "start", refuse)
        ex = SweepExecutor(max_workers=2)
        results = ex.run(GRID)
        assert results == SweepExecutor().run(GRID)
        assert any("cannot fork" in e for e in ex.progress.events)
        assert any("no worker left" in e for e in ex.progress.events)
        assert {c.source for c in ex.progress.cells} == {"serial"}

    def test_a_private_sweep_opens_no_port(self, monkeypatch):
        """Forked workers reach the broker over socket pairs, so a private
        sweep listens nowhere: no other process can connect to it to
        lease a cell or hand in a result."""
        listened = []
        real_listen = socket.socket.listen

        def listen(sock, *args):
            listened.append(sock.getsockname())
            return real_listen(sock, *args)

        monkeypatch.setattr(socket.socket, "listen", listen)
        ex = SweepExecutor(max_workers=2)
        results = ex.run(GRID)
        assert listened == []
        assert [c.source for c in ex.progress.cells] == ["remote"] * len(GRID)
        assert results == SweepExecutor().run(GRID)
        # The probe does see a socket that listens.
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen()
            assert listened == [server.getsockname()]

    def test_a_worker_error_raises_the_serial_type(self, monkeypatch):
        """A non-retryable error fails the sweep with the exception type
        a serial run raises, whatever ``max_workers`` is."""
        import repro.runtime.executor as executor_module

        def broken(task, recorder=None, tracer=None):
            raise ValueError(f"cannot build {task.label}")

        monkeypatch.setattr(executor_module, "run_task", broken)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="cannot build") as info:
                SweepExecutor(max_workers=workers).run(GRID)
            assert info.type is ValueError
        assert multiprocessing.active_children() == []

    def test_a_non_retryable_error_is_a_failed_cell_at_any_width(self):
        """Under ``on_exhausted="record"`` a cell whose error is not
        worth a retry becomes a FailedCell, whether it ran in-process or
        on a worker; the rest of the grid is unaffected."""
        tasks = [make_task("dgemm", "PCSTALL"), make_task("dgemm", "NOSUCHDESIGN")]
        policy = RetryPolicy(on_exhausted="record")
        outcomes = []
        for workers in (1, 2):
            ex = SweepExecutor(max_workers=workers, retry=policy)
            results = ex.run(tasks)
            assert [type(r).__name__ for r in results] == ["RunResult", "FailedCell"]
            assert results[1].attempts == 1
            assert (ex.progress.failures, ex.progress.retries) == (1, 0)
            outcomes.append(results)
        assert outcomes[0] == outcomes[1]
        assert multiprocessing.active_children() == []

    def test_a_failed_cell_logs_the_attempts_it_ran(self, sweep_log):
        """A cell whose error is not worth a retry fails on its first
        attempt of three: its log record says so, not that a budget ran
        out."""
        ex = SweepExecutor(retry=RetryPolicy(on_exhausted="record"))
        ex.run([make_task("dgemm", "NOSUCHDESIGN")])
        (record,) = [r for r in sweep_log if r.levelno == logging.ERROR]
        assert record.getMessage() == "cell dgemm/NOSUCHDESIGN failed after 1 attempt(s)"
        assert (record.attempts, record.error) == (1, "ValueError")

    def test_a_task_without_a_content_key_fails_alike(self):
        """Keys are computed once, before any cell runs, so a task with
        no canonical form fails the same way serially and in parallel."""
        obj = EDnPObjective(2)
        obj.hook = {1, 2}  # a set has no canonical form
        tasks = [make_task(design="CRISP", objective=obj), make_task()]
        for workers in (1, 2):
            ex = SweepExecutor(max_workers=workers)
            with pytest.raises(TypeError):
                ex.run(tasks)
            assert ex.progress.cells == []


class TestWorkersReaped:
    """Forked workers are terminated and joined on every exit path."""

    def test_no_children_after_a_parallel_sweep(self):
        SweepExecutor(max_workers=2).run(GRID)
        assert multiprocessing.active_children() == []

    def test_timeout_reaps_workers(self):
        ex = SweepExecutor(max_workers=2, task_timeout_s=0.2, retry=NO_RETRY)
        with HANG_EVERY_FIRST_ATTEMPT, pytest.raises(SweepTimeoutError):
            ex.run(GRID)
        assert multiprocessing.active_children() == []

    def test_timeouts_exhaust_into_failed_cells_and_reap(self):
        policy = RetryPolicy(max_attempts=1, on_exhausted="record")
        ex = SweepExecutor(max_workers=2, task_timeout_s=0.2, retry=policy)
        with HANG_EVERY_FIRST_ATTEMPT:
            results = ex.run(GRID)
        assert all(isinstance(r, FailedCell) for r in results)
        assert not any(results)  # FailedCell is falsy
        assert ex.progress.failures == len(GRID)
        assert multiprocessing.active_children() == []
