"""Resuming an interrupted sweep through the result cache, and
crash-safe cache writes."""

import pathlib
import subprocess
import sys

import pytest

from repro.config import small_config
from repro.runtime.cache import KEPT_VERSIONS, ResultCache
from repro.runtime.executor import NO_RETRY, SweepExecutor, SweepTask
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFaultError
from repro.runtime.progress import SOURCE_CACHE, SweepInstrumentation

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


class TestExecutorResume:
    """Re-running a sweep with the same settings computes only the cells
    the cache lacks."""

    def _run(self, tmp_path, progress=None):
        return SweepExecutor(
            cache=ResultCache(tmp_path / "cache"),
            progress=progress or SweepInstrumentation(),
            retry=NO_RETRY,
        ).run(GRID)

    def test_interrupted_sweep_resumes_bit_identical(self, tmp_path):
        reference = SweepExecutor().run(GRID)

        # The third cell fails the sweep, after the first two finished.
        plan = FaultPlan((FaultSpec(GRID[2].label, "raise", attempts=None),))
        with plan, pytest.raises(InjectedFaultError):
            self._run(tmp_path)

        progress = SweepInstrumentation()
        results = self._run(tmp_path, progress)
        assert results == reference
        # Exactly the finished half was loaded, the rest computed.
        assert progress.cache_hits == 2
        assert progress.cache_misses == 2
        loaded = [rec.label for rec in progress.cells if rec.source == SOURCE_CACHE]
        assert loaded == [task.label for task in GRID[:2]]

    def test_second_resume_skips_everything(self, tmp_path):
        first = self._run(tmp_path)
        progress = SweepInstrumentation()
        again = self._run(tmp_path, progress)
        assert again == first
        assert progress.cache_hits == len(GRID)
        assert progress.cache_misses == 0


class TestCrashSafeCacheWrites:
    def test_atomic_put_leaves_no_torn_entry_on_kill(self, tmp_path):
        """A worker killed mid-``put`` must not corrupt the cache.

        The child writes one good entry, then dies *inside* ``put`` for
        a second key (``os.fsync`` calls ``os._exit`` once the entry's
        bytes are in the open temp file). The survivor must be readable
        and the dead key must be absent - at worst a stray ``*.tmp``.
        """
        tests = pathlib.Path(__file__).resolve().parent
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
        """No reader opens a ``<key>.pkl`` (format 1) or an unprefixed
        ``<key>.json`` (format 2) again, so ``put`` removes key-named
        ones; files under any other name stay."""
        format1 = tmp_path / f"{'0123456789abcdef' * 4}.pkl"
        format2 = tmp_path / f"{'0123456789abcdef' * 4}.json"
        notes = tmp_path / "notes.pkl"
        fresh = tmp_path / "live.0.0.tmp"
        for path in (format1, format2, notes, fresh):
            path.write_bytes(b"x")
        ResultCache(tmp_path).put("k", make_run_result())
        assert not format1.exists() and not format2.exists()
        assert notes.exists() and fresh.exists()

    def test_entries_of_versions_beyond_the_kept_ones_are_swept(self, tmp_path):
        """Every source edit re-keys every cell. The next cache's first
        put keeps this code's entries and those of the most recently
        written other versions, ``KEPT_VERSIONS`` in all, and deletes
        the rest, however old this code's own entries are."""
        import os
        import time

        assert KEPT_VERSIONS >= 2  # a parent and a change share a cache
        ResultCache(tmp_path).put("mine", make_run_result())
        now = time.time()
        # Other versions, oldest first, all newer than this code's entry.
        others = [tmp_path / f"{v:012x}-k.json" for v in range(KEPT_VERSIONS + 1)]
        for age, path in enumerate(reversed(others), start=1):
            path.write_bytes(b"x")
            os.utime(path, (now - 60 * age, now - 60 * age))
        mine = ResultCache(tmp_path).path_for("mine")
        os.utime(mine, (now - 3600, now - 3600))

        ResultCache(tmp_path).put("new", make_run_result())
        kept = KEPT_VERSIONS - 1
        assert [p.exists() for p in others] == [False] * (len(others) - kept) + [True] * kept
        assert ResultCache(tmp_path).get("mine") == make_run_result()
        assert ResultCache(tmp_path).get("new") == make_run_result()

    def test_one_cache_scans_its_directory_once(self, tmp_path, monkeypatch):
        """A scan reads the whole directory, so a scan per ``put`` would
        cost more with every stored cell: one cache sweeps it once."""
        scans = []
        iterdir = pathlib.Path.iterdir

        def counting_iterdir(path):
            if path == tmp_path:
                scans.append(path)
            return iterdir(path)

        monkeypatch.setattr(pathlib.Path, "iterdir", counting_iterdir)
        cache = ResultCache(tmp_path)
        for key in ("a", "b", "c"):
            cache.put(key, make_run_result())
        assert len(scans) == 1
        assert all(cache.get(key) == make_run_result() for key in ("a", "b", "c"))
