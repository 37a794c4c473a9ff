"""Process-pool sweep executor for (workload x design x config) grids.

The paper parallelised its fork-and-pre-execute methodology across "10
processes" (Section 5.1); the same observation applies one level up:
every cell of an evaluation grid is an independent deterministic
simulation, so a figure's (workload x design) matrix fans out across
cores. :class:`SweepExecutor` does that with
:class:`concurrent.futures.ProcessPoolExecutor` while guaranteeing:

* **Deterministic ordering** - ``run(tasks)[i]`` is always the result of
  ``tasks[i]``, however the pool interleaved them.
* **Bit-identical results** - workers execute exactly the same
  :func:`run_task` code path as a serial run, so parallelism never
  changes a number. Retries re-run the same deterministic cell, so they
  never change a number either.
* **Fault tolerance** - a :class:`RetryPolicy` re-runs cells that
  crashed (:class:`~repro.runtime.faults.InjectedFaultError`, a broken
  pool), hung (:class:`SweepTimeoutError`) or returned corrupt payloads,
  with jitterless exponential backoff and an automatic in-process serial
  fallback on the final attempt. Exhausted cells either fail the sweep
  (``on_exhausted="raise"``) or land as :class:`FailedCell` markers
  (``on_exhausted="record"``) so one poisoned cell cannot lose a figure.
* **Checkpoint/resume** - with a
  :class:`~repro.runtime.checkpoint.SweepCheckpoint` attached, every
  completed cell is durably recorded; a resumed sweep skips completed
  cells by fetching them from the result cache.
* **Graceful degradation** - ``max_workers=1``, a single pending cell,
  or any pickling/pool failure falls back to in-process execution (the
  failure is recorded in the instrumentation, not raised).
* **No leaked workers** - when a cell times out or the sweep aborts,
  outstanding futures are cancelled and the pool is shut down with
  ``cancel_futures=True`` instead of being left to run to completion.

Cells are transparently memoised through
:class:`~repro.runtime.cache.ResultCache` when one is supplied.
"""

from __future__ import annotations

import concurrent.futures
import functools
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.config import SimConfig

if TYPE_CHECKING:  # spans are optional; the import stays off the hot path
    from repro.obs.trace import Span, Tracer
    from repro.runtime.distributed import SweepBroker
from repro.core.objectives import Objective
from repro.runtime.cache import ResultCache, describe_objective, task_key
from repro.runtime.checkpoint import SweepCheckpoint
from repro.runtime.faults import (
    CorruptResult,
    CorruptResultError,
    InjectedFaultError,
    active_fault_plan,
)
from repro.runtime.progress import (
    SOURCE_CACHE,
    SOURCE_PARALLEL,
    SOURCE_RESUMED,
    SOURCE_SERIAL,
    CellRecord,
    SweepInstrumentation,
)


class SweepTimeoutError(RuntimeError):
    """A sweep cell exceeded the per-task timeout."""


@dataclass(frozen=True)
class SweepTask:
    """One self-contained sweep cell.

    Carries names and config - not live simulator objects - so the task
    pickles cheaply to a worker process, which builds the workload (once
    per process) and controller locally via :func:`run_task`.
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
    import repro.workloads as workloads

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
    # Local imports keep worker start-up lean and avoid import cycles.
    from repro.dvfs.designs import make_controller
    from repro.dvfs.simulation import DvfsSimulation
    from repro.workloads import workload

    kernels = _workload_kernels(workload(task.workload), task.scale)
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

    Runs in worker processes (which inherit ``REPRO_FAULT_PLAN`` from the
    parent's environment) and in-process for serial execution. A planned
    ``raise`` fault surfaces here as :class:`InjectedFaultError`; a
    ``hang`` fault sleeps before running (so the parent's timeout fires,
    or - untimed - the cell still produces its correct result); a
    ``corrupt`` fault returns a :class:`CorruptResult` marker the
    collector turns into :class:`CorruptResultError`.

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
    if plan is not None:
        corrupt = plan.apply(task.label, attempt)
        if corrupt is not None:
            return (
                corrupt,
                time.perf_counter() - t0,
                tracer.collect() if tracer is not None else None,
            )
    result = run_task(task, tracer=tracer)
    return (
        result,
        time.perf_counter() - t0,
        tracer.collect() if tracer is not None else None,
    )


#: Exceptions that mean "this grid cannot cross the process boundary";
#: they demote the sweep to serial execution rather than failing it.
#: (A broken pool is handled by the retry machinery instead.)
_FALLBACK_ERRORS = (
    pickle.PicklingError,
    TypeError,
    AttributeError,
    ImportError,
    OSError,
)

#: ``RetryPolicy.on_exhausted`` values.
ON_EXHAUSTED_RAISE = "raise"
ON_EXHAUSTED_RECORD = "record"

#: ``SweepExecutor.backend`` values.
BACKEND_LOCAL = "local"
BACKEND_REMOTE = "remote"


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
    #: propagates (or demotes the sweep to serial, for pickling errors).
    retryable: Tuple[Type[BaseException], ...] = (
        InjectedFaultError,
        CorruptResultError,
        BrokenProcessPool,
        SweepTimeoutError,
    )
    #: Run the last attempt in-process instead of in the pool: immune to
    #: broken pools and queueing timeouts, the strongest guarantee the
    #: runtime can offer a repeatedly unlucky cell.
    serial_final_attempt: bool = True
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
    """Runs sweep cells across a process pool with caching and retries."""

    max_workers: int = 1
    cache: Optional[ResultCache] = None
    progress: SweepInstrumentation = field(default_factory=SweepInstrumentation)
    #: Per-cell timeout in seconds, measured from collection start
    #: (includes queueing); None disables the guard. Serial execution
    #: cannot be timed out (there is no process to abandon).
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
    #: ``"local"`` (process pool / serial on this host) or ``"remote"``
    #: (cells served to worker hosts by the attached ``broker``). Cache
    #: hits and checkpoint resume are handled identically either way.
    backend: str = BACKEND_LOCAL
    #: The :class:`~repro.runtime.distributed.SweepBroker` serving the
    #: grid when ``backend="remote"``.
    broker: Optional["SweepBroker"] = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.backend not in (BACKEND_LOCAL, BACKEND_REMOTE):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == BACKEND_REMOTE and self.broker is None:
            raise ValueError('backend="remote" requires a broker')
        self.progress.max_workers = max(self.progress.max_workers, self.max_workers)
        self._sweep_span: Optional["Span"] = None

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
            results: List[Optional[object]] = [None] * len(tasks)
            pending: List[int] = []
            for i, task in enumerate(tasks):
                if self._load_completed(task, results, i):
                    continue
                pending.append(i)

            if self.backend == BACKEND_REMOTE:
                if pending:
                    assert self.broker is not None
                    self.broker.serve(self, tasks, pending, results)
            elif self.max_workers <= 1 or len(pending) <= 1:
                self._run_serial(tasks, pending, results)
            else:
                self._run_parallel(tasks, pending, results)
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

    def _load_completed(self, task: SweepTask, results: List, i: int) -> bool:
        """Fill ``results[i]`` from the checkpoint manifest or cache."""
        if self.cache is None:
            return False
        key = task.key()
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
        result: object,
        elapsed: float,
        source: str,
        attempts: int = 1,
    ) -> None:
        key = task.key()
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

    # -- failure bookkeeping -------------------------------------------

    def _exhausted(self, task: SweepTask, attempts: int, exc: BaseException):
        """A cell ran out of attempts: record it or fail the sweep."""
        self.progress.record_failure(task.label, attempts, exc)
        if self.retry.on_exhausted == ON_EXHAUSTED_RECORD:
            return FailedCell(task.label, task.key(), attempts, repr(exc))
        raise exc

    def _backoff(self, attempt: int) -> None:
        delay = self.retry.delay_for(attempt)
        if delay > 0:
            time.sleep(delay)

    # -- serial execution ----------------------------------------------

    def _run_serial(
        self, tasks: Sequence[SweepTask], pending: Sequence[int], results: List
    ) -> None:
        for i in pending:
            results[i] = self._run_cell_serial(tasks[i])

    def _run_cell_serial(self, task: SweepTask):
        """One cell, in-process, with the full retry loop."""
        attempt = 0
        while True:
            attempt += 1
            span, ctx = self._start_cell(task, attempt)
            try:
                result, elapsed, spans = _run_task_timed(task, attempt, ctx)
                if isinstance(result, CorruptResult):
                    raise CorruptResultError(
                        f"corrupt result for {task.label} (attempt {attempt})"
                    )
            except self.retry.retryable as exc:
                if attempt >= self.retry.max_attempts:
                    self._end_cell(span, "exhausted")
                    return self._exhausted(task, attempt, exc)
                self._end_cell(span, "retry")
                self.progress.record_retry(
                    task.label, attempt, exc, self.retry.delay_for(attempt + 1)
                )
                self._backoff(attempt + 1)
                continue
            self._end_cell(span, "ok", spans)
            self._finish_cell(task, result, elapsed, SOURCE_SERIAL, attempts=attempt)
            return result

    def _final_serial_attempt(self, task: SweepTask, attempt: int):
        """Last attempt of a pool-scheduled cell, run in-process."""
        self.progress.note(
            f"final attempt {attempt} for {task.label}: running in-process"
        )
        span, ctx = self._start_cell(task, attempt)
        try:
            result, elapsed, spans = _run_task_timed(task, attempt, ctx)
            if isinstance(result, CorruptResult):
                raise CorruptResultError(
                    f"corrupt result for {task.label} (attempt {attempt})"
                )
        except self.retry.retryable as exc:
            self._end_cell(span, "exhausted")
            return self._exhausted(task, attempt, exc)
        self._end_cell(span, "ok", spans)
        self._finish_cell(task, result, elapsed, SOURCE_SERIAL, attempts=attempt)
        return result

    # -- parallel execution --------------------------------------------

    def _run_parallel(
        self, tasks: Sequence[SweepTask], pending: Sequence[int], results: List
    ) -> None:
        """Round-based pool execution with deterministic retry order.

        Each round submits every runnable cell (in task order) to a
        fresh-or-healthy pool, collects in task order, and queues
        retryable failures for the next round. Cells on their final
        attempt run in-process when the policy allows, after every pool
        round of the current generation. One backoff sleep per round
        (the round's maximum pending delay) keeps the schedule
        jitterless without serialising the collection.
        """
        attempts: Dict[int, int] = {i: 0 for i in pending}
        queue: List[int] = list(pending)
        while queue:
            round_cells = sorted(queue)
            queue.clear()
            pool_round: List[int] = []
            serial_round: List[int] = []
            for i in round_cells:
                next_attempt = attempts[i] + 1
                final = next_attempt >= self.retry.max_attempts
                if next_attempt > 1 and final and self.retry.serial_final_attempt:
                    serial_round.append(i)
                else:
                    pool_round.append(i)
            if pool_round:
                self._pool_round(tasks, pool_round, results, attempts, queue)
            for i in serial_round:
                attempts[i] += 1
                results[i] = self._final_serial_attempt(tasks[i], attempts[i])
            if queue:
                self._backoff(max(attempts[i] + 1 for i in queue))

    def _pool_round(
        self,
        tasks: Sequence[SweepTask],
        indices: List[int],
        results: List,
        attempts: Dict[int, int],
        queue: List[int],
    ) -> None:
        try:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.max_workers)
        except (OSError, ValueError) as exc:  # e.g. no /dev/shm, fork limits
            self.progress.note(f"process pool unavailable ({exc!r}); running serially")
            self._run_serial(tasks, indices, results)
            return

        futures: Dict[int, concurrent.futures.Future] = {}
        cell_spans: Dict[int, Optional["Span"]] = {}
        try:
            for i in indices:
                attempts[i] += 1
                span, ctx = self._start_cell(tasks[i], attempts[i])
                cell_spans[i] = span
                futures[i] = pool.submit(
                    _run_task_timed, tasks[i], attempts[i], ctx
                )
        except _FALLBACK_ERRORS as exc:
            self.progress.note(f"submit failed ({exc!r}); running serially")
            for fut in futures.values():
                fut.cancel()
            for span in cell_spans.values():
                self._end_cell(span, "requeued")
            pool.shutdown(wait=False, cancel_futures=True)
            self._run_serial(tasks, indices, results)
            return

        collected: Set[int] = set()
        pool_tainted = False  # a timeout or broken pool poisoned this round
        try:
            for i in indices:
                fut = futures[i]
                if pool_tainted:
                    self._salvage(tasks, i, fut, results, attempts, queue)
                    self._end_cell(cell_spans.get(i), "salvaged")
                    collected.add(i)
                    continue
                try:
                    result, elapsed, spans = fut.result(
                        timeout=self.task_timeout_s
                    )
                except concurrent.futures.TimeoutError:
                    # Reap the pool *before* deciding the cell's fate, so
                    # a timed-out sweep never leaks busy workers.
                    pool_tainted = True
                    self._reap(pool, futures, skip=collected | {i})
                    collected.add(i)
                    self._end_cell(cell_spans.get(i), "timeout")
                    self._fail_or_queue(
                        tasks[i], i,
                        SweepTimeoutError(
                            f"sweep cell {tasks[i].label} exceeded "
                            f"{self.task_timeout_s:.1f}s"
                            f" (attempt {attempts[i]})"
                        ),
                        results, attempts, queue,
                    )
                    continue
                except BrokenProcessPool as exc:
                    pool_tainted = True
                    self._reap(pool, futures, skip=collected | {i})
                    collected.add(i)
                    self._end_cell(cell_spans.get(i), "broken_pool")
                    self._fail_or_queue(tasks[i], i, exc, results, attempts, queue)
                    continue
                except self.retry.retryable as exc:
                    collected.add(i)
                    self._end_cell(cell_spans.get(i), "retry")
                    self._fail_or_queue(tasks[i], i, exc, results, attempts, queue)
                    continue
                except _FALLBACK_ERRORS as exc:
                    # Un-picklable grid: finish what the pool could not,
                    # in-process, without losing completed work.
                    remaining = [j for j in indices if j not in collected]
                    self.progress.note(
                        f"parallel execution failed ({exc!r}); "
                        f"finishing {len(remaining)} cell(s) serially"
                    )
                    self._reap(pool, futures, skip=collected)
                    self._end_cell(cell_spans.get(i), "error")
                    for j in remaining:
                        if j != i:
                            self._end_cell(cell_spans.get(j), "requeued")
                    self._run_serial(tasks, remaining, results)
                    return
                collected.add(i)
                if isinstance(result, CorruptResult):
                    self._end_cell(cell_spans.get(i), "corrupt", spans)
                    self._fail_or_queue(
                        tasks[i], i,
                        CorruptResultError(
                            f"corrupt result for {tasks[i].label} "
                            f"(attempt {attempts[i]})"
                        ),
                        results, attempts, queue,
                    )
                    continue
                self._end_cell(cell_spans.get(i), "ok", spans)
                results[i] = result
                self._finish_cell(
                    tasks[i], result, elapsed, SOURCE_PARALLEL,
                    attempts=attempts[i],
                )
        except BaseException:
            # An exhausted cell raising (or Ctrl-C) must not strand the
            # pool: cancel outstanding work and reap it on the way out.
            self._reap(pool, futures, skip=collected)
            raise
        if not pool_tainted:
            pool.shutdown()

    @staticmethod
    def _reap(
        pool: concurrent.futures.ProcessPoolExecutor,
        futures: Dict[int, concurrent.futures.Future],
        skip: Set[int],
    ) -> None:
        """Cancel outstanding futures and shut the pool down hard."""
        for j, fut in futures.items():
            if j not in skip:
                fut.cancel()
        # A non-blocking shutdown is not enough: workers mid-task keep
        # running, and on 3.11 the pool's manager thread can then wait
        # forever for results nobody will collect, hanging interpreter
        # exit. The round is already condemned (its survivors were
        # salvaged or requeued), so kill the workers outright; crash-safe
        # cache writes mean a worker killed mid-put cannot tear an entry.
        # (Snapshot the process table first: shutdown() clears it.)
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass

    def _salvage(
        self,
        tasks: Sequence[SweepTask],
        i: int,
        fut: concurrent.futures.Future,
        results: List,
        attempts: Dict[int, int],
        queue: List[int],
    ) -> None:
        """Collect what a tainted round still produced.

        Completed futures keep their results (or their real failures);
        cancelled and never-finished cells requeue *uncharged* - their
        attempt never ran, so it should not count against the budget.
        """
        if fut.done() and not fut.cancelled():
            exc = fut.exception()
            if exc is None:
                result, elapsed, spans = fut.result()
                if self.tracer is not None and spans:
                    self.tracer.adopt(spans)
                if isinstance(result, CorruptResult):
                    self._fail_or_queue(
                        tasks[i], i,
                        CorruptResultError(
                            f"corrupt result for {tasks[i].label} "
                            f"(attempt {attempts[i]})"
                        ),
                        results, attempts, queue,
                    )
                    return
                results[i] = result
                self._finish_cell(
                    tasks[i], result, elapsed, SOURCE_PARALLEL,
                    attempts=attempts[i],
                )
                return
            if isinstance(exc, BrokenProcessPool):
                # Collateral damage from another cell's crash.
                attempts[i] -= 1
                queue.append(i)
                return
            self._fail_or_queue(tasks[i], i, exc, results, attempts, queue)
            return
        fut.cancel()
        attempts[i] -= 1
        queue.append(i)

    def _fail_or_queue(
        self,
        task: SweepTask,
        i: int,
        exc: BaseException,
        results: List,
        attempts: Dict[int, int],
        queue: List[int],
    ) -> None:
        """Queue a retryable failure for the next round, or exhaust it."""
        if self.retry.is_retryable(exc) and attempts[i] < self.retry.max_attempts:
            self.progress.record_retry(
                task.label, attempts[i], exc, self.retry.delay_for(attempts[i] + 1)
            )
            queue.append(i)
        else:
            results[i] = self._exhausted(task, attempts[i], exc)


__all__ = [
    "BACKEND_LOCAL",
    "BACKEND_REMOTE",
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
