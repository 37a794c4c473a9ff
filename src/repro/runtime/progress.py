"""Sweep instrumentation: per-cell wall time, cache hits, utilisation.

The executor feeds one :class:`CellRecord` per (workload x design) cell
into a :class:`SweepInstrumentation`; :meth:`SweepInstrumentation.summary`
renders the aggregate through :mod:`repro.analysis.report` so figure
drivers and the CLI can show where a sweep spent its time and how well
its workers were used. Every count is read off what the instrumentation
keeps: cache hits and hot-path work off its cell records, retries,
reclaims and failures off the one count each ``record_*`` call keeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.log import get_logger
from repro.runtime.profiling import HotPathCounters

_log = get_logger("sweep")

#: How a cell's result was obtained.
SOURCE_CACHE = "cache"
#: Computed in the sweep's own process.
SOURCE_SERIAL = "serial"
#: Computed by a broker's worker process, forked on this host or
#: connected from another (see repro.runtime.distributed).
SOURCE_REMOTE = "remote"


@dataclass(frozen=True)
class CellRecord:
    """Outcome of one sweep cell."""

    label: str
    #: Compute time of the cell itself (0 for cache hits).
    wall_s: float
    #: One of :data:`SOURCE_CACHE` / :data:`SOURCE_SERIAL` /
    #: :data:`SOURCE_REMOTE`.
    source: str
    #: Hot-path profiler counters of the cell's simulation (see
    #: :mod:`repro.runtime.profiling`); None for a cache hit, which did
    #: no work in this sweep.
    hotpath: Optional[Dict[str, int]] = None
    #: How many tries the cell needed (1 = first attempt succeeded).
    attempts: int = 1


@dataclass
class SweepInstrumentation:
    """Accumulates cell records and events for one sweep."""

    name: str = "sweep"
    max_workers: int = 1
    cells: List[CellRecord] = field(default_factory=list)
    #: Human-readable notes, retries, reclaims and failures, in order.
    events: List[str] = field(default_factory=list)
    #: Failed attempts that were re-run (:meth:`record_retry`).
    retries: int = field(default=0, init=False)
    #: Leases reclaimed from lost workers (:meth:`record_reclaim`).
    reclaims: int = field(default=0, init=False)
    #: Cells that failed for good (:meth:`record_failure`).
    failures: int = field(default=0, init=False)
    _t_start: Optional[float] = None
    _t_end: Optional[float] = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        self._t_start = time.perf_counter()

    def finish(self) -> None:
        self._t_end = time.perf_counter()

    def record_cell(self, record: CellRecord) -> None:
        self.cells.append(record)
        _log.debug(
            "cell done",
            extra={"cell": record.label, "source": record.source,
                   "wall_s": round(record.wall_s, 4),
                   "attempts": record.attempts},
        )

    def note(self, message: str) -> None:
        """Record a notable event (e.g. a cell run in-process)."""
        self.events.append(message)
        _log.info(message)

    def record_retry(
        self, label: str, attempt: int, error: BaseException, backoff_s: float
    ) -> None:
        """A cell attempt failed retryably and will be re-run."""
        kind = type(error).__name__
        self.events.append(
            f"retry {label}: attempt {attempt} failed ({kind}); "
            f"backing off {backoff_s:.3f}s"
        )
        self.retries += 1
        _log.warning(
            f"retrying {label}",
            extra={"cell": label, "attempt": attempt, "error": kind,
                   "backoff_s": round(backoff_s, 4)},
        )

    def record_reclaim(
        self, label: str, worker: str, attempt: int, cause: str
    ) -> None:
        """A leased cell was reclaimed from a dead or hung remote worker.

        Counted separately from retries (:attr:`reclaims` vs
        :attr:`retries`): a reclaim says a *worker* was lost, a
        retry says an *attempt* failed. The broker records
        both for each reclaimed cell - the reclaim here, then the
        ordinary retry/exhaustion accounting for the charged attempt.
        """
        self.events.append(
            f"reclaimed {label} from {worker} (attempt {attempt}: {cause})"
        )
        self.reclaims += 1
        _log.warning(
            f"reclaiming {label}",
            extra={"cell": label, "worker": worker, "attempt": attempt,
                   "cause": cause},
        )

    def record_failure(
        self, label: str, attempts: int, error: BaseException
    ) -> None:
        """A cell failed for good: its retry budget ran out, or its
        error is not worth a retry."""
        kind = type(error).__name__
        self.events.append(
            f"failed {label}: gave up after {attempts} attempt(s) ({kind})"
        )
        self.failures += 1
        _log.error(
            f"cell {label} exhausted its retry budget",
            extra={"cell": label, "attempts": attempts, "error": kind},
        )

    # ------------------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.source == SOURCE_CACHE)

    @property
    def cache_misses(self) -> int:
        """Cells computed by this sweep, in-process or on a worker."""
        return len(self.cells) - self.cache_hits

    @property
    def compute_s(self) -> float:
        """Summed per-cell compute time (across all workers)."""
        return sum(c.wall_s for c in self.cells)

    @property
    def wall_s(self) -> float:
        if self._t_start is None:
            return 0.0
        end = self._t_end if self._t_end is not None else time.perf_counter()
        return end - self._t_start

    @property
    def utilisation(self) -> float:
        """Fraction of the workers' capacity that did cell work, in [0, 1]."""
        capacity = self.wall_s * max(1, self.max_workers)
        if capacity <= 0:
            return 0.0
        return min(1.0, self.compute_s / capacity)

    def slowest_cells(self, n: int = 3) -> List[CellRecord]:
        """The ``n`` slowest cells this sweep computed (cache hits took
        no time)."""
        computed = [c for c in self.cells if c.source != SOURCE_CACHE]
        return sorted(computed, key=lambda c: -c.wall_s)[:n]

    def hotpath_totals(self) -> Dict[str, int]:
        """Hot-path counters summed across all cells that reported them,
        in :class:`HotPathCounters` field order ({} when none did)."""
        reported = [c.hotpath for c in self.cells if c.hotpath]
        if not reported:
            return {}
        totals = HotPathCounters()
        for hotpath in reported:
            totals.merge(hotpath)
        return totals.as_dict()

    def summary(self) -> str:
        """Render the aggregate instrumentation as an ASCII table."""
        # Imported here: only a rendered summary needs the report module.
        from repro.analysis.report import format_table

        rows = [
            ["cells", len(self.cells)],
            ["cache hits", self.cache_hits],
            ["cache misses", self.cache_misses],
            ["workers", self.max_workers],
            ["wall time (s)", self.wall_s],
            ["compute time (s)", self.compute_s],
            ["worker utilisation", self.utilisation],
        ]
        if self.retries:
            rows.append(["retries", self.retries])
        if self.reclaims:
            rows.append(["reclaimed leases", self.reclaims])
        if self.failures:
            rows.append(["failed cells", self.failures])
        for c in self.slowest_cells():
            rows.append([f"slowest: {c.label}", c.wall_s])
        for name, value in self.hotpath_totals().items():
            rows.append([f"hotpath: {name}", f"{value:,}"])
        for e in self.events:
            rows.append(["note", e])
        return format_table(
            ["metric", "value"], rows, title=f"Sweep instrumentation: {self.name}"
        )


__all__ = [
    "CellRecord",
    "SweepInstrumentation",
    "SOURCE_CACHE",
    "SOURCE_SERIAL",
    "SOURCE_REMOTE",
]
