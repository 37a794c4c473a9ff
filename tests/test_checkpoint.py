"""Checkpoint/resume manifest and crash-safe cache writes."""

import json
import subprocess
import sys

from repro.config import small_config
from repro.runtime.cache import ResultCache
from repro.runtime.checkpoint import (
    MANIFEST_VERSION,
    SweepCheckpoint,
    default_checkpoint_path,
)
from repro.runtime.executor import SweepExecutor, SweepTask
from repro.runtime.progress import SOURCE_RESUMED, SweepInstrumentation

from helpers import make_run_result

CFG = small_config(n_cus=2, waves_per_cu=4)


def make_task(workload="comd", design="STATIC@1.7"):
    return SweepTask(
        workload=workload, design=design, config=CFG, scale=0.1,
        max_epochs=60, oracle_sample_freqs=3,
    )


GRID = [
    make_task(w, d)
    for w in ("comd", "xsbench")
    for d in ("STATIC@1.7", "PCSTALL")
]


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepCheckpoint(path, sweep="s1") as ckpt:
            ckpt.record("k1", label="a/b", source="serial", wall_s=0.5)
            ckpt.record("k2", label="c/d", source="parallel", wall_s=1.5)
        again = SweepCheckpoint(path, sweep="s1", resume=True)
        assert "k1" in again and "k2" in again and "k3" not in again
        assert len(again) == 2
        assert again.resumed_from == 2
        again.close()

    def test_fresh_open_truncates(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepCheckpoint(path) as ckpt:
            ckpt.record("old")
        with SweepCheckpoint(path) as ckpt:  # resume=False: new sweep
            assert "old" not in ckpt
        assert "old" not in SweepCheckpoint(path, resume=True)

    def test_header_line_written(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        SweepCheckpoint(path, sweep="figure-fig14").close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"manifest": MANIFEST_VERSION, "sweep": "figure-fig14"}

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepCheckpoint(path) as ckpt:
            ckpt.record("k1", label="a/b")
            ckpt.record("k2", label="c/d")
        # Simulate a kill mid-append: a partial, unterminated JSON line.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k3", "lab')
        again = SweepCheckpoint(path, resume=True)
        assert "k1" in again and "k2" in again
        assert "k3" not in again
        again.close()

    def test_duplicate_record_is_idempotent(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepCheckpoint(path) as ckpt:
            ckpt.record("k1")
            ckpt.record("k1")
        assert len(path.read_text().splitlines()) == 2  # header + one line

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "nope.jsonl", resume=True)
        assert len(ckpt) == 0 and ckpt.resumed_from == 0
        ckpt.close()

    def test_default_path_sanitises_sweep_name(self, tmp_path):
        path = default_checkpoint_path(tmp_path, "figure fig14/all")
        assert path.parent == tmp_path / "checkpoints"
        assert "/" not in path.name and " " not in path.name


class TestExecutorResume:
    def _executor(self, tmp_path, ckpt, progress=None):
        return SweepExecutor(
            cache=ResultCache(tmp_path / "cache"),
            checkpoint=ckpt,
            progress=progress or SweepInstrumentation(),
        )

    def test_interrupted_sweep_resumes_bit_identical(self, tmp_path):
        reference = SweepExecutor().run(GRID)
        manifest = tmp_path / "sweep.jsonl"

        # "Interrupted" run: only the first half of the grid completes.
        with SweepCheckpoint(manifest, sweep="s") as ckpt:
            self._executor(tmp_path, ckpt).run(GRID[:2])

        progress = SweepInstrumentation()
        with SweepCheckpoint(manifest, sweep="s", resume=True) as ckpt:
            assert ckpt.resumed_from == 2
            results = self._executor(tmp_path, ckpt, progress).run(GRID)

        assert results == reference
        # Exactly the interrupted half was skipped, the rest computed.
        assert progress.resumed == 2
        assert progress.cache_misses == 2
        sources = [rec.source for rec in progress.cells]
        assert sources.count(SOURCE_RESUMED) == 2

    def test_second_resume_skips_everything(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        with SweepCheckpoint(manifest, sweep="s") as ckpt:
            first = self._executor(tmp_path, ckpt).run(GRID)
        progress = SweepInstrumentation()
        with SweepCheckpoint(manifest, sweep="s", resume=True) as ckpt:
            again = self._executor(tmp_path, ckpt, progress).run(GRID)
        assert again == first
        assert progress.resumed == len(GRID)
        assert progress.cache_misses == 0

    def test_manifest_entry_without_cache_entry_reruns(self, tmp_path):
        # A manifest can outlive its cache (cache pruned, version bump):
        # membership alone must never produce a result from thin air.
        manifest = tmp_path / "sweep.jsonl"
        task = GRID[0]
        with SweepCheckpoint(manifest, sweep="s") as ckpt:
            expect = self._executor(tmp_path, ckpt).run_one(task)
        for entry in (tmp_path / "cache").glob("*.json"):
            entry.unlink()
        progress = SweepInstrumentation()
        with SweepCheckpoint(manifest, sweep="s", resume=True) as ckpt:
            got = self._executor(tmp_path, ckpt, progress).run_one(task)
        assert got == expect
        assert progress.resumed == 0 and progress.cache_misses == 1


class TestCrashSafeCacheWrites:
    def test_atomic_put_leaves_no_torn_entry_on_kill(self, tmp_path):
        """A worker killed mid-``put`` must not corrupt the cache.

        The child writes one good entry, then dies *inside* ``put`` for
        a second key (``os.fsync`` calls ``os._exit`` once the entry's
        bytes are in the open temp file). The survivor must be readable
        and the dead key must be absent - at worst a stray ``*.tmp``.
        """
        tests = __import__("pathlib").Path(__file__).resolve().parent
        code = (
            "import os, sys\n"
            f"sys.path[:0] = [{str(tests.parent / 'src')!r}, {str(tests)!r}]\n"
            "from helpers import make_run_result\n"
            "from repro.runtime.cache import ResultCache\n"
            f"cache = ResultCache({str(tmp_path)!r})\n"
            "cache.put('goodkey', make_run_result())\n"
            "os.fsync = lambda fd: os._exit(7)\n"
            "cache.put('badkey', make_run_result(epochs=13))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], timeout=60)
        assert proc.returncode == 7  # really died inside the second put

        cache = ResultCache(tmp_path)
        assert cache.get("goodkey") == make_run_result()
        assert cache.get("badkey") is None
        assert not cache.path_for("badkey").exists()
        assert len(list(tmp_path.glob("badkey.*.tmp"))) == 1

    def test_put_tmp_files_never_visible_as_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", make_run_result())
        assert list(tmp_path.glob("*.tmp")) == []  # renamed away
        assert cache.get("k") == make_run_result()

    def test_stale_tmp_swept_fresh_tmp_kept(self, tmp_path):
        import os
        import time

        stale = tmp_path / "dead.0.0.tmp"
        fresh = tmp_path / "live.0.0.tmp"
        stale.write_bytes(b"x")
        fresh.write_bytes(b"x")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        ResultCache(tmp_path).put("k", make_run_result())
        assert not stale.exists()
        assert fresh.exists()

    def test_format1_entries_swept_other_files_kept(self, tmp_path):
        """Format 2 never reads a ``<key>.pkl`` again, so ``put`` removes
        key-named ones; a ``.pkl`` under any other name stays."""
        format1 = tmp_path / f"{'0123456789abcdef' * 4}.pkl"
        notes = tmp_path / "notes.pkl"
        fresh = tmp_path / "live.0.0.tmp"
        for path in (format1, notes, fresh):
            path.write_bytes(b"x")
        ResultCache(tmp_path).put("k", make_run_result())
        assert not format1.exists()
        assert notes.exists() and fresh.exists()
