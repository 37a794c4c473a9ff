"""Crash-safe sweep checkpointing: a JSONL manifest of completed cells.

A figure sweep is a grid of deterministic cells; losing the process at
cell 180 of 200 should cost 20 cells, not 200. The
:class:`SweepCheckpoint` makes that true:

* Every completed cell appends **one JSON line** — its cache key, label,
  source and wall time — to a manifest file. Each append is flushed and
  ``fsync``'d before the executor moves on, so a kill -9 can lose at
  most the line being written.
* Loading tolerates a torn final line (the crash signature of an
  append-mode writer): complete lines are honoured, the partial tail is
  ignored. The next run re-executes only that one cell.
* Cell *results* live in the :class:`~repro.runtime.cache.ResultCache`
  (whose writes are atomic-rename, so they are never torn); the
  manifest only proves membership — "this cell of *this sweep* finished"
  — which is what lets ``repro figure --resume`` skip completed cells
  without trusting arbitrary cache contents.

Manifest keys embed ``repro.__version__`` and a digest of the
simulator's source (they are :func:`~repro.runtime.cache.task_key`
digests), so a manifest written by older simulator code simply stops
matching and the cells re-run — stale checkpoints can never resurrect
stale numbers.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, Iterable, Optional, Union

PathLike = Union[str, pathlib.Path]

#: Bump when the manifest line format changes.
MANIFEST_VERSION = 1

#: Default directory (inside the result-cache dir) for CLI manifests.
CHECKPOINT_DIRNAME = "checkpoints"


class SweepCheckpoint:
    """Append-only JSONL manifest of completed sweep-cell keys.

    Open with ``resume=True`` to load previously completed keys and keep
    appending, or ``resume=False`` (the default) to start a fresh
    manifest for a new sweep. Use as a context manager or call
    :meth:`close` so the underlying file handle is released.
    """

    def __init__(
        self,
        path: PathLike,
        sweep: str = "sweep",
        resume: bool = False,
    ) -> None:
        self.path = pathlib.Path(path)
        self.sweep = sweep
        self.completed: Dict[str, dict] = {}
        self._fh = None
        if resume and self.path.exists():
            self._load()
        #: Cells already complete when this run started (resume skips them).
        self.resumed_from = len(self.completed)
        if not resume or not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(self._header() + "\n", encoding="utf-8")

    # -- reading --------------------------------------------------------

    def _header(self) -> str:
        return json.dumps(
            {"manifest": MANIFEST_VERSION, "sweep": self.sweep},
            sort_keys=True,
        )

    def _load(self) -> None:
        try:
            blob = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in blob.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A torn trailing line is the expected crash artifact;
                # anything unparsable is simply not a completed cell.
                continue
            key = record.get("key")
            if key:
                self.completed[str(key)] = record

    def __contains__(self, key: str) -> bool:
        return key in self.completed

    def __len__(self) -> int:
        return len(self.completed)

    def keys(self) -> Iterable[str]:
        return self.completed.keys()

    # -- writing --------------------------------------------------------

    def record(
        self,
        key: str,
        label: str = "",
        source: str = "",
        wall_s: float = 0.0,
    ) -> None:
        """Durably mark one cell complete (flush + fsync per line)."""
        if key in self.completed:
            return
        record = {"key": key, "label": label, "source": source,
                  "wall_s": round(wall_s, 6)}
        self.completed[key] = record
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError:
            # Checkpointing is belt-and-braces on top of the result
            # cache; a full or read-only disk must not fail the sweep.
            pass

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def default_checkpoint_path(cache_dir: PathLike, sweep: str) -> pathlib.Path:
    """Where the CLI keeps the manifest for a named sweep."""
    safe = "".join(c if (c.isalnum() or c in "-_.") else "-" for c in sweep)
    return pathlib.Path(cache_dir) / CHECKPOINT_DIRNAME / f"{safe}.manifest.jsonl"


__all__ = [
    "CHECKPOINT_DIRNAME",
    "MANIFEST_VERSION",
    "SweepCheckpoint",
    "default_checkpoint_path",
]
