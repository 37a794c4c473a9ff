"""Sweep executor for (workload x design x config) grids.

The paper parallelised its fork-and-pre-execute methodology across "10
processes" (Section 5.1); the same observation applies one level up:
every cell of an evaluation grid is an independent deterministic
simulation, so a figure's (workload x design) matrix fans out across
cores. :class:`SweepExecutor` runs cells in-process, or - with
``max_workers > 1`` - serves them through a
:class:`~repro.runtime.distributed.SweepBroker` to worker processes it
forks on this host, while guaranteeing:

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
  attempt always runs in-process. A cell that exhausts its attempts, or
  fails with an error not worth a retry, either fails the sweep
  (``on_exhausted="raise"``) or lands as a :class:`FailedCell` marker
  (``on_exhausted="record"``) so one poisoned cell cannot lose a figure,
  in-process and on a worker alike.
* **Cached cells** - with a :class:`~repro.runtime.cache.ResultCache`
  attached, a cached cell is loaded, not run, and every computed cell
  is written crash-safely as it finishes; so re-running an interrupted
  sweep computes only the cells it had not finished.
* **Graceful degradation** - ``max_workers=1`` or a single pending cell
  runs in-process, and so does every pending cell once no worker is
  left.
* **No leaked workers** - forked workers are terminated and joined on
  every exit path, whether the sweep completed, timed out or aborted.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import repro.workloads as workloads
from repro.config import SimConfig
from repro.core.objectives import Objective
from repro.dvfs.designs import learned_artifact_id, make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.runtime.cache import ResultCache, describe_objective, task_key
from repro.runtime.faults import (
    CorruptResultError,
    InjectedFaultError,
    active_fault_plan,
)
from repro.runtime.progress import (
    SOURCE_CACHE,
    SOURCE_SERIAL,
    CellRecord,
    SweepInstrumentation,
)


class SweepTimeoutError(RuntimeError):
    """A sweep cell's worker exceeded the per-task timeout."""


class LeaseExpired(RuntimeError):
    """A leased cell's worker died or stopped heartbeating; the cell was
    reclaimed (see :mod:`repro.runtime.distributed`). Charged against
    the retry budget like any failed attempt, and always retryable."""


@dataclass(frozen=True)
class SweepTask:
    """One self-contained sweep cell.

    Carries names and config - not live simulator objects - so a worker
    process, which inherits the task list at fork, builds the workload
    (once per process) and controller locally via :func:`run_task`.
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
    timing (used by ``repro trace --trace``). Both are deliberately
    *not* part of :class:`SweepTask` - observability never enters the
    result-cache key because it never changes the result.
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


def _run_task_timed(task: SweepTask, attempt: int = 1) -> Tuple[object, float]:
    """One attempt at one cell, with the active fault plan consulted.

    The one attempt every path runs: in-process, and in worker processes
    (which inherit ``REPRO_FAULT_PLAN`` from the parent's environment).
    A planned ``raise`` fault surfaces here as
    :class:`InjectedFaultError`; a ``hang`` fault sleeps before running
    (so the worker's timeout fires, or - untimed - the cell still
    produces its correct result); a ``corrupt`` fault's
    :class:`CorruptResult` marker is raised as :class:`CorruptResultError`.
    Returns the result and the attempt's wall time in seconds.
    """
    t0 = time.perf_counter()
    plan = active_fault_plan()
    if plan is not None and plan.apply(task.label, attempt) is not None:
        raise CorruptResultError(
            f"corrupt result for {task.label} (attempt {attempt})"
        )
    # The module-level name, looked up per call: a wrapper installed on
    # this module times every cell.
    result = run_task(task)
    return result, time.perf_counter() - t0


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
    #: worker is always retryable; see :class:`LeaseExpired`.)
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

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.progress.max_workers = max(self.progress.max_workers, self.max_workers)
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
        try:
            # Each cell's content key, computed once: the cache, the
            # broker and failed cells all reuse it.
            keys = [task.key() for task in tasks]
            results: List[Optional[object]] = [None] * len(tasks)
            pending = [
                i for i, task in enumerate(tasks)
                if not self._load_completed(task, keys[i], results, i)
            ]
            if self.max_workers > 1 and len(pending) > 1:
                self._run_brokered(tasks, keys, pending, results)
            else:
                for i in pending:
                    results[i] = self._run_cell_serial(tasks[i], keys[i])
            return results  # type: ignore[return-value]
        finally:
            if started_here:
                self.progress.finish()

    def run_one(self, task: SweepTask):
        return self.run([task])[0]

    # ------------------------------------------------------------------

    def _load_completed(self, task: SweepTask, key: str, results: List, i: int) -> bool:
        """Fill ``results[i]`` from the cache, if it holds the cell."""
        if self.cache is None:
            return False
        cached = self.cache.get(key)
        if cached is None:
            return False
        results[i] = cached
        self.progress.record_cell(CellRecord(task.label, 0.0, SOURCE_CACHE))
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
        self.progress.record_cell(
            CellRecord(
                task.label, elapsed, source,
                hotpath=getattr(result, "hotpath", None),
                attempts=attempts,
            )
        )

    def _charge_failure(
        self, task: SweepTask, key: str, attempts: int, exc: BaseException
    ) -> Union[float, FailedCell]:
        """Charge a failed attempt, on every path: the backoff before the
        cell's next attempt, or - once the error is not retryable or the
        cell is out of attempts - its :class:`FailedCell`, or ``exc``
        raised, as ``on_exhausted`` says."""
        retryable = self.retry.is_retryable(exc) or isinstance(exc, LeaseExpired)
        if retryable and attempts < self.retry.max_attempts:
            delay = self.retry.delay_for(attempts + 1)
            self.progress.record_retry(task.label, attempts, exc, delay)
            return delay
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
            try:
                result, elapsed = _run_task_timed(task, attempt)
            except Exception as exc:  # noqa: BLE001 - charged like a worker's failure
                outcome = self._charge_failure(task, key, attempt, exc)
                if isinstance(outcome, FailedCell):
                    return outcome
                if outcome > 0:
                    time.sleep(outcome)
                continue
            self._finish_cell(task, key, result, elapsed, SOURCE_SERIAL, attempt)
            return result

    def _run_brokered(
        self, tasks: Sequence[SweepTask], keys: Sequence[str], pending: Sequence[int], results: List
    ) -> None:
        """Serve the pending cells through a broker that forks
        ``min(max_workers, len(pending))`` workers."""
        from repro.runtime.distributed import SweepBroker

        broker = SweepBroker(self, tasks, keys, pending, results)
        broker.serve(workers=min(self.max_workers, len(pending)))


__all__ = [
    "NO_RETRY",
    "ON_EXHAUSTED_RAISE",
    "ON_EXHAUSTED_RECORD",
    "FailedCell",
    "LeaseExpired",
    "RetryPolicy",
    "SweepExecutor",
    "SweepTask",
    "SweepTimeoutError",
    "run_task",
]
