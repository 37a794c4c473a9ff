"""Sweep executor for (workload x design x config) grids.

The paper parallelised its fork-and-pre-execute methodology across "10
processes" (Section 5.1); the same observation applies one level up:
every cell of an evaluation grid is an independent deterministic
simulation, so a figure's (workload x design) matrix fans out across
cores. :class:`SweepExecutor` runs cells in-process, or - with
``max_workers > 1`` or an attached broker - serves them through a
:class:`~repro.runtime.distributed.SweepBroker` to worker processes it
forks on this host (and, when the broker listens, to any remote workers
that join), while guaranteeing:

* **Deterministic ordering** - ``run(tasks)[i]`` is always the result of
  ``tasks[i]``, however the workers interleaved them.
* **Bit-identical results** - workers execute exactly the same
  :func:`run_task` code path as a serial run, so parallelism never
  changes a number. Retries re-run the same deterministic cell, so they
  never change a number either.
* **Fault tolerance** - a :class:`RetryPolicy` re-runs cells that
  crashed (:class:`~repro.runtime.faults.InjectedFaultError`, a dead
  worker), hung (:class:`SweepTimeoutError`) or returned corrupt
  payloads, with jitterless exponential backoff; a retried cell's final
  attempt always runs in-process. Exhausted cells either fail the sweep
  (``on_exhausted="raise"``) or land as :class:`FailedCell` markers
  (``on_exhausted="record"``) so one poisoned cell cannot lose a figure.
* **Checkpoint/resume** - with a
  :class:`~repro.runtime.checkpoint.SweepCheckpoint` attached, every
  completed cell is durably recorded; a resumed sweep skips completed
  cells by fetching them from the result cache.
* **Graceful degradation** - ``max_workers=1`` or a single pending cell
  runs in-process, and so does a cell whose task cannot cross the wire.
* **No leaked workers** - forked workers are terminated and joined on
  every exit path, whether the sweep completed, timed out or aborted.

Cells are transparently memoised through
:class:`~repro.runtime.cache.ResultCache` when one is supplied.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Type

import repro.workloads as workloads
from repro.config import SimConfig

if TYPE_CHECKING:  # spans are optional; the import stays off the hot path
    from repro.obs.trace import Span, Tracer
    from repro.runtime.distributed import SweepBroker
from repro.core.objectives import Objective
from repro.dvfs.designs import learned_artifact_id, make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.runtime.cache import ResultCache, describe_objective, task_key
from repro.runtime.checkpoint import SweepCheckpoint
from repro.runtime.faults import (
    CorruptResultError,
    InjectedFaultError,
    active_fault_plan,
)
from repro.runtime.progress import (
    SOURCE_CACHE,
    SOURCE_RESUMED,
    SOURCE_SERIAL,
    CellRecord,
    SweepInstrumentation,
)


class SweepTimeoutError(RuntimeError):
    """A sweep cell's worker exceeded the per-task timeout."""


@dataclass(frozen=True)
class SweepTask:
    """One self-contained sweep cell.

    Carries names and config - not live simulator objects - so the task
    crosses the wire cheaply to a worker process, which builds the
    workload (once per process) and controller locally via
    :func:`run_task`.
    """

    workload: str
    design: str
    config: SimConfig
    scale: float = 0.4
    max_epochs: int = 400
    oracle_sample_freqs: Optional[int] = 4
    #: Record oracle truth into a recorder that :func:`run_task` attaches
    #: (see ``DvfsSimulation``). With no recorder attached a design that
    #: is not fed truth samples nothing, and the result is the same.
    collect_accuracy: bool = False
    objective: Optional[Objective] = None

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.design}"

    def cache_fields(self) -> Dict[str, object]:
        """Everything the simulation result depends on (see cache.py)."""
        return {
            "workload": self.workload,
            "design": self.design,
            "model": learned_artifact_id(self.design),
            "config": self.config,
            "scale": self.scale,
            "max_epochs": self.max_epochs,
            "oracle_sample_freqs": self.oracle_sample_freqs,
            "collect_accuracy": self.collect_accuracy,
            "objective": describe_objective(self.objective),
        }

    def key(self) -> str:
        return task_key(self.cache_fields())


@functools.lru_cache(maxsize=None)
def _workload_kernels(spec, scale: float) -> tuple:
    """A workload's (immutable) kernels, built once per ``(spec, scale)``
    per process: keyed on the spec's value, never its name.
    ``build_workload`` is looked up at call time, so a wrapper installed
    on :mod:`repro.workloads` sees every real build."""
    return tuple(workloads.build_workload(spec, scale=scale))


def run_task(task: SweepTask, recorder=None, tracer=None):
    """Execute one cell to completion (runs in worker processes too).

    ``recorder`` is an optional
    :class:`~repro.telemetry.recorder.EpochTraceRecorder` attached to
    the simulation (used by ``repro trace`` / ``repro report``);
    ``tracer`` an optional :class:`~repro.obs.trace.Tracer` for span
    timing. Both are deliberately *not* part of :class:`SweepTask` -
    observability never enters the result-cache key because it never
    changes the result.
    """
    kernels = _workload_kernels(workloads.workload(task.workload), task.scale)
    ctrl = make_controller(task.design, task.config, task.objective)
    sim = DvfsSimulation(
        kernels,
        ctrl,
        task.config,
        design_name=task.design,
        workload_name=task.workload,
        collect_accuracy=task.collect_accuracy,
        max_epochs=task.max_epochs,
        oracle_sample_freqs=task.oracle_sample_freqs,
        telemetry=recorder,
        tracer=tracer,
    )
    return sim.run()


def _run_task_timed(
    task: SweepTask, attempt: int = 1, span_ctx: Optional[Dict[str, str]] = None
) -> Tuple[object, float, Optional[List[Dict[str, object]]]]:
    """One attempt at one cell, with the active fault plan consulted.

    The one attempt every path runs: in-process, and in worker processes
    (which inherit ``REPRO_FAULT_PLAN`` from the parent's environment).
    A planned ``raise`` fault surfaces here as
    :class:`InjectedFaultError`; a ``hang`` fault sleeps before running
    (so the worker's timeout fires, or - untimed - the cell still
    produces its correct result); a ``corrupt`` fault's
    :class:`CorruptResult` marker is raised as :class:`CorruptResultError`.

    ``span_ctx`` is a wire-form :class:`~repro.obs.trace.SpanContext`
    (the parent's cell span). When given, a worker-side tracer joins
    that trace, the simulation's run/epoch/oracle spans nest under it,
    and the finished records travel back as the third element of the
    return value for the parent to :meth:`~repro.obs.trace.Tracer.adopt`
    - the same ship-back-and-merge pattern the sweep instrumentation
    uses. When None (tracing off) no tracer object is built and the
    third element is None.
    """
    t0 = time.perf_counter()
    tracer = None
    if span_ctx is not None:
        from repro.obs.trace import SpanContext, Tracer

        tracer = Tracer.from_context(SpanContext.from_wire(span_ctx))
    plan = active_fault_plan()
    if plan is not None and plan.apply(task.label, attempt) is not None:
        raise CorruptResultError(
            f"corrupt result for {task.label} (attempt {attempt})"
        )
    result = run_task(task, tracer=tracer)
    return (
        result,
        time.perf_counter() - t0,
        tracer.collect() if tracer is not None else None,
    )


#: ``RetryPolicy.on_exhausted`` values.
ON_EXHAUSTED_RAISE = "raise"
ON_EXHAUSTED_RECORD = "record"


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats a failed sweep cell.

    Backoff is *jitterless*: the delay before attempt ``n`` is exactly
    ``min(backoff_base_s * backoff_factor**(n - 2), backoff_max_s)``,
    and retries are re-submitted in task order, so a seeded fault plan
    produces the same schedule every run.
    """

    #: Total tries per cell (1 = fail on first error, the old behaviour).
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Exception types worth re-running the cell for. Everything else
    #: fails the cell on its first occurrence. (A cell lost with its
    #: worker is always retryable; see ``distributed.LeaseExpired``.)
    retryable: Tuple[Type[BaseException], ...] = (
        InjectedFaultError,
        CorruptResultError,
        SweepTimeoutError,
    )
    #: ``"raise"``: an exhausted cell fails the sweep (callers see the
    #: original error). ``"record"``: it becomes a :class:`FailedCell`
    #: in the results and the sweep carries on.
    on_exhausted: str = ON_EXHAUSTED_RAISE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.on_exhausted not in (ON_EXHAUSTED_RAISE, ON_EXHAUSTED_RECORD):
            raise ValueError(f"unknown on_exhausted {self.on_exhausted!r}")

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, self.retryable)

    def delay_for(self, attempt: int) -> float:
        """Deterministic pre-attempt delay (attempt numbering from 1)."""
        if attempt <= 1:
            return 0.0
        return min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 2),
            self.backoff_max_s,
        )


#: The pre-retry behaviour: any failure is immediately sweep-fatal.
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class FailedCell:
    """Placeholder result for a cell that exhausted its retry budget."""

    label: str
    key: str
    attempts: int
    error: str

    def __bool__(self) -> bool:  # failed cells are falsy in filters
        return False


@dataclass
class SweepExecutor:
    """Runs sweep cells in-process or on broker workers, with caching and
    retries."""

    #: Worker processes to fork for a sweep (1 = run cells in-process).
    max_workers: int = 1
    cache: Optional[ResultCache] = None
    progress: SweepInstrumentation = field(default_factory=SweepInstrumentation)
    #: Per-cell timeout in seconds of a worker's compute; None disables
    #: the guard. A worker enforces it itself and reports the cell as a
    #: :class:`SweepTimeoutError`. In-process attempts are never timed.
    task_timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Durable manifest of completed cells (see checkpoint.py); cells
    #: recorded there are skipped on resume by loading from the cache.
    checkpoint: Optional[SweepCheckpoint] = None
    #: Optional span tracer (see :mod:`repro.obs.trace`). The sweep, each
    #: cell attempt, and - via context propagation into the workers -
    #: each run/epoch/oracle_sample become spans. None (the default)
    #: costs one ``is None`` branch per site and changes nothing.
    tracer: Optional["Tracer"] = None
    #: A :class:`~repro.runtime.distributed.SweepBroker` to serve the
    #: grid from, so workers on other hosts can join the sweep. None
    #: serves a parallel sweep from a private broker that opens no port.
    broker: Optional["SweepBroker"] = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.progress.max_workers = max(self.progress.max_workers, self.max_workers)
        self._sweep_span: Optional["Span"] = None
        if self.max_workers > 1:
            # A parallel sweep serves its cells from a broker: load that
            # stack (sockets, threads) here, not inside run().
            import repro.runtime.distributed  # noqa: F401

    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[SweepTask]) -> List:
        """Execute every task; ``run(tasks)[i]`` belongs to ``tasks[i]``."""
        tasks = list(tasks)
        started_here = self.progress._t_start is None
        if started_here:
            self.progress.start()
        tr = self.tracer
        outer_span = self._sweep_span
        if tr is not None:
            self._sweep_span = tr.start(
                "sweep", parent=outer_span, n_tasks=len(tasks),
                max_workers=self.max_workers,
            )
        try:
            # Each cell's content key, computed once: the cache, the
            # checkpoint, the broker and failed cells all reuse it.
            keys = [task.key() for task in tasks]
            results: List[Optional[object]] = [None] * len(tasks)
            pending = [
                i for i, task in enumerate(tasks)
                if not self._load_completed(task, keys[i], results, i)
            ]
            parallel = self.max_workers > 1 and len(pending) > 1
            if pending and (parallel or self.broker is not None):
                self._run_brokered(tasks, keys, pending, results)
            else:
                for i in pending:
                    results[i] = self._run_cell_serial(tasks[i], keys[i])
            return results  # type: ignore[return-value]
        finally:
            if tr is not None:
                tr.finish(self._sweep_span)
                self._sweep_span = outer_span
            if started_here:
                self.progress.finish()

    # -- span helpers (no-ops when no tracer is attached) ---------------

    def _start_cell(
        self, task: SweepTask, attempt: int
    ) -> Tuple[Optional["Span"], Optional[Dict[str, str]]]:
        """Open a cell-attempt span; returns (span, wire context)."""
        tr = self.tracer
        if tr is None:
            return None, None
        span = tr.start(
            "cell", parent=self._sweep_span, label=task.label, attempt=attempt
        )
        return span, tr.context(span).to_wire()

    def _end_cell(
        self,
        span: Optional["Span"],
        status: str,
        worker_records: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        """Merge shipped worker spans and close the cell span."""
        if span is None:
            return
        tr = self.tracer
        if worker_records:
            tr.adopt(worker_records)
        if not span.done:
            tr.finish(span, status=status)

    def run_one(self, task: SweepTask):
        return self.run([task])[0]

    # ------------------------------------------------------------------

    def _load_completed(self, task: SweepTask, key: str, results: List, i: int) -> bool:
        """Fill ``results[i]`` from the checkpoint manifest or cache."""
        if self.cache is None:
            return False
        resumed = self.checkpoint is not None and key in self.checkpoint
        cached = self.cache.get(key)
        if cached is None:
            # A manifest entry without a cache entry (cache cleared,
            # version bump) is simply stale: re-run the cell.
            return False
        results[i] = cached
        source = SOURCE_RESUMED if resumed else SOURCE_CACHE
        if self.tracer is not None:
            self.tracer.event(
                "cell_cached", parent=self._sweep_span,
                label=task.label, source=source,
            )
        if self.checkpoint is not None:
            self.checkpoint.record(key, task.label, source)
        self.progress.record_cell(
            CellRecord(
                task.label, task.workload, task.design, 0.0, source,
                hotpath=getattr(cached, "hotpath", None),
            )
        )
        return True

    def _finish_cell(
        self,
        task: SweepTask,
        key: str,
        result: object,
        elapsed: float,
        source: str,
        attempts: int,
    ) -> None:
        if self.cache is not None:
            self.cache.put(key, result)
        if self.checkpoint is not None:
            self.checkpoint.record(key, task.label, source, elapsed)
        self.progress.record_cell(
            CellRecord(
                task.label, task.workload, task.design, elapsed, source,
                hotpath=getattr(result, "hotpath", None),
                attempts=attempts,
            )
        )

    def _exhausted(self, task: SweepTask, key: str, attempts: int, exc: BaseException):
        """A cell ran out of attempts: record it or fail the sweep."""
        self.progress.record_failure(task.label, attempts, exc)
        if self.retry.on_exhausted == ON_EXHAUSTED_RECORD:
            return FailedCell(task.label, key, attempts, repr(exc))
        raise exc

    # -- execution -------------------------------------------------------

    def _run_cell_serial(self, task: SweepTask, key: str):
        """One cell, in-process, with the full retry loop."""
        attempt = 0
        while True:
            attempt += 1
            span, ctx = self._start_cell(task, attempt)
            try:
                result, elapsed, spans = _run_task_timed(task, attempt, ctx)
            except self.retry.retryable as exc:
                if attempt >= self.retry.max_attempts:
                    self._end_cell(span, "exhausted")
                    return self._exhausted(task, key, attempt, exc)
                self._end_cell(span, "retry")
                delay = self.retry.delay_for(attempt + 1)
                self.progress.record_retry(task.label, attempt, exc, delay)
                if delay > 0:
                    time.sleep(delay)
                continue
            self._end_cell(span, "ok", spans)
            self._finish_cell(task, key, result, elapsed, SOURCE_SERIAL, attempt)
            return result

    def _run_brokered(
        self, tasks: Sequence[SweepTask], keys: Sequence[str], pending: Sequence[int], results: List
    ) -> None:
        """Serve the pending cells through a broker with
        ``min(max_workers, len(pending))`` forked workers (none at
        ``max_workers=1``: an attached broker then waits for remote ones)."""
        from repro.runtime.distributed import SweepBroker

        broker = self.broker if self.broker is not None else SweepBroker(port=None)
        local = min(self.max_workers, len(pending)) if self.max_workers > 1 else 0
        broker.serve(self, tasks, keys, pending, results, local_workers=local)


__all__ = [
    "NO_RETRY",
    "ON_EXHAUSTED_RAISE",
    "ON_EXHAUSTED_RECORD",
    "FailedCell",
    "RetryPolicy",
    "SweepExecutor",
    "SweepTask",
    "SweepTimeoutError",
    "run_task",
]
