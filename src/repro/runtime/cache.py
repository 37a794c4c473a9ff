"""On-disk result cache for sweep cells.

Every (workload x design x platform) simulation is deterministic, so its
:class:`~repro.dvfs.simulation.RunResult` can be reused as long as
nothing that feeds the simulation changed. The cache key is a SHA-256
content hash over a canonical JSON encoding of everything a cell depends
on:

* the full :class:`~repro.config.SimConfig` (GPU geometry, memory
  timing, DVFS grid/epoch, power model, seed),
* design name, workload name, work scale, ``max_epochs``,
* oracle sampling and accuracy-collection settings,
* a stable description of the objective (class name + constructor
  state), and for a ``LEARNED@<name>`` design the artifact id the name
  resolves to (a registry name can be pointed at a retrained model),
* the package version, a cache-format version, and a SHA-256 of the
  source of every module a sweep cell can import
  (:data:`CELL_SOURCES`), so editing the simulator invalidates every
  entry while editing the CLI or the analysis code keeps them.

Each entry is one ``<key>.json`` file under the cache directory
(default ``.repro_cache/`` in the working directory; ``REPRO_CACHE_DIR``
overrides it) holding the result's exact JSON form
(:func:`~repro.telemetry.schema.run_result_to_wire`), so reading the
cache runs no code. An entry that is missing, truncated, unreadable or
refused by the codec is a miss and is recomputed - never an error.

Writes are **crash-safe**: each entry is written to a uniquely named
temporary file (key + pid + sequence, so concurrent writers of the same
key never collide), fsync'd, then atomically renamed over the final
path. A process killed mid-write leaves at worst a stray ``*.tmp`` file
- never a torn entry - and ``get`` only ever sees complete entries.
Stray temporaries from previous crashes are swept by ``put``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import time
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Union

from repro.telemetry.schema import run_result_from_wire, run_result_to_wire

if TYPE_CHECKING:
    from repro.dvfs.simulation import RunResult

PathLike = Union[str, pathlib.Path]

#: Bump when the on-disk entry layout or key recipe changes.
CACHE_FORMAT_VERSION = 2

#: Default cache directory name (created in the current working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


#: The modules and packages of ``repro`` that a sweep cell can import:
#: a cell's result is a function of their source. ``analysis``, ``cli``,
#: ``service`` and ``validation`` are not among them, so editing those
#: keeps the cache (a test runs a cell of every design and fails if it
#: loads a module outside this set).
CELL_SOURCES = (
    "__init__.py", "_lazy.py", "config.py", "core", "dvfs", "gpu", "learn", "obs",
    "power", "runtime", "telemetry", "workloads",
)

_PACKAGE_DIR = pathlib.Path(__file__).resolve().parent.parent


def cell_source_files() -> List[pathlib.Path]:
    """Every source file of :data:`CELL_SOURCES`, in a fixed order."""
    files: List[pathlib.Path] = []
    for name in CELL_SOURCES:
        path = _PACKAGE_DIR / name
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 over :func:`cell_source_files` (names and bytes).

    Computed once per process, on first use: a forked sweep worker
    inherits its parent's.
    """
    digest = hashlib.sha256()
    for path in cell_source_files():
        data = path.read_bytes()
        name = path.relative_to(_PACKAGE_DIR).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _code_version() -> str:
    from repro import __version__

    return f"{__version__}/cache-v{CACHE_FORMAT_VERSION}/src-{_source_digest()}"


def _canonical(obj: Any) -> Any:
    """Reduce a value to a deterministic JSON-encodable structure."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    # Derived/compiled objects declare their identity explicitly: e.g. a
    # CompiledProgram is a pure function of its source Program, so it
    # canonicalises as that program and cache keys are stable whether a
    # caller holds the source or the compiled form. (Also the hook for
    # slotted classes, which the vars() fallback below cannot handle.)
    key_fn = getattr(obj, "canonical_key", None)
    if key_fn is not None:
        return _canonical(key_fn())
    # Objects (e.g. objectives) reduce to class name + public state.
    state = {
        k: _canonical(v)
        for k, v in sorted(vars(obj).items())
        if not k.startswith("_")
    }
    return {"__class__": type(obj).__name__, **state}


def canonicalize(obj: Any) -> Any:
    """Public face of :func:`_canonical`.

    The telemetry schema embeds configs in this form (so a trace's
    ``sim_config`` and its ``config_hash`` are two views of one
    structure), and the decision service reconstructs configs from it.
    """
    return _canonical(obj)


def describe_objective(objective: Optional[Any]) -> Any:
    """Stable key fragment for an objective (None = driver default)."""
    return _canonical(objective) if objective is not None else None


def config_hash(config: Any) -> str:
    """SHA-256 content hash of a configuration object.

    Same canonicalisation as the cache key, so telemetry artifacts and
    cached results that describe the same platform carry the same hash.
    """
    blob = json.dumps(_canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def task_key(fields: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a cell's canonicalised input fields."""
    payload = _canonical(dict(fields))
    payload["code_version"] = _code_version()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_cache_dir() -> pathlib.Path:
    # `or`, not a default: REPRO_CACHE_DIR="" must mean "unset", else the
    # cache dir degenerates to "." and litters the working directory with
    # key-named .json files.
    return pathlib.Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


class ResultCache:
    """One JSON file per key of sweep results, with hit/miss counters."""

    def __init__(self, cache_dir: Optional[PathLike] = None) -> None:
        self.dir = pathlib.Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self._seq = 0

    def path_for(self, key: str) -> pathlib.Path:
        return self.dir / f"{key}.json"

    def get(self, key: str) -> Optional["RunResult"]:
        """Return the cached result, or None on miss/corruption."""
        try:
            result = run_result_from_wire(self.path_for(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            # Missing, truncated, foreign or stale entries all mean "recompute".
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Any) -> None:
        # Unique per (process, call): two workers caching the same key
        # concurrently each rename a *complete* file into place; a kill
        # mid-write orphans only this writer's temporary.
        self._seq += 1
        tmp = self.dir / f"{key}.{os.getpid()}.{self._seq}.tmp"
        try:
            blob = run_result_to_wire(result).encode("utf-8")
            self.dir.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as f:
                f.write(blob)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path_for(key))
        except (OSError, ValueError):
            # Caching is best-effort: a read-only or full disk, or a
            # result the codec refuses, caches nothing and is not fatal.
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self, max_age_s: float = 3600.0) -> None:
        """Remove temp files orphaned by crashed writers (best-effort).

        Only clearly stale temporaries are touched: another live writer's
        in-flight file is younger than the age floor.
        """
        cutoff = time.time() - max_age_s
        try:
            for tmp in self.dir.glob("*.tmp"):
                try:
                    if tmp.stat().st_mtime < cutoff:
                        tmp.unlink(missing_ok=True)
                except OSError:
                    continue
        except OSError:
            pass

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "CELL_SOURCES",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "canonicalize",
    "cell_source_files",
    "config_hash",
    "default_cache_dir",
    "describe_objective",
    "task_key",
]
