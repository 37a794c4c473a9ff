"""Parallel experiment runtime: sweep executor, cache, fault tolerance.

* :class:`~repro.runtime.executor.SweepExecutor` runs independent
  (workload x design x config) simulation cells in-process or through a
  :class:`~repro.runtime.distributed.SweepBroker` to forked (or remote)
  worker processes, with deterministic ordering and per-cell retries
  governed by a :class:`~repro.runtime.executor.RetryPolicy`
  (jitterless exponential backoff, in-process final attempt).
* :class:`~repro.runtime.cache.ResultCache` memoises cell results on
  disk, keyed by a content hash of everything the result depends on;
  writes are fsync'd and atomically renamed, so a mid-write kill can
  never leave a torn entry, and re-running an interrupted sweep
  computes only the cells the cache lacks.
* :mod:`repro.runtime.faults` injects deterministic crash/hang/corrupt
  faults (``REPRO_FAULT_PLAN``) so tests and CI can prove the retry
  machinery end to end.
* :class:`~repro.runtime.progress.SweepInstrumentation` records each
  cell's source, wall time and hot-path work, and each retry, reclaim
  and failure; cache hits and misses, worker utilisation and the
  summed hot-path counters are read off those records.
* :mod:`repro.runtime.profiling` collects the simulator's hot-path event
  counters (waves scanned, clones taken, bytes snapshotted, ...).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.runtime.cache import (
        CACHE_DIR_ENV,
        DEFAULT_CACHE_DIR,
        ResultCache,
        default_cache_dir,
        task_key,
    )
    from repro.runtime.distributed import (
        DEFAULT_BROKER_PORT,
        SweepBroker,
        SweepWorker,
        WorkerError,
        WorkerSummary,
    )
    from repro.runtime.executor import (
        NO_RETRY,
        FailedCell,
        LeaseExpired,
        RetryPolicy,
        SweepExecutor,
        SweepTask,
        SweepTimeoutError,
        run_task,
    )
    from repro.runtime.faults import (
        FAULT_PLAN_ENV,
        CorruptResult,
        CorruptResultError,
        FaultPlan,
        FaultSpec,
        InjectedFaultError,
        active_fault_plan,
    )
    from repro.runtime.profiling import HotPathCounters, collect_hotpath
    from repro.runtime.progress import CellRecord, SweepInstrumentation

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("CACHE_DIR_ENV", "DEFAULT_CACHE_DIR", "ResultCache", "default_cache_dir",
              "task_key"),
    "distributed": ("DEFAULT_BROKER_PORT", "SweepBroker", "SweepWorker", "WorkerError",
                    "WorkerSummary"),
    "executor": ("NO_RETRY", "FailedCell", "LeaseExpired", "RetryPolicy", "SweepExecutor",
                 "SweepTask", "SweepTimeoutError", "run_task"),
    "faults": ("FAULT_PLAN_ENV", "CorruptResult", "CorruptResultError", "FaultPlan",
               "FaultSpec", "InjectedFaultError", "active_fault_plan"),
    "profiling": ("HotPathCounters", "collect_hotpath"),
    "progress": ("CellRecord", "SweepInstrumentation"),
})

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_BROKER_PORT",
    "DEFAULT_CACHE_DIR",
    "FAULT_PLAN_ENV",
    "NO_RETRY",
    "CellRecord",
    "CorruptResult",
    "CorruptResultError",
    "FailedCell",
    "FaultPlan",
    "FaultSpec",
    "HotPathCounters",
    "InjectedFaultError",
    "LeaseExpired",
    "ResultCache",
    "RetryPolicy",
    "SweepBroker",
    "SweepExecutor",
    "SweepInstrumentation",
    "SweepTask",
    "SweepTimeoutError",
    "SweepWorker",
    "WorkerError",
    "WorkerSummary",
    "active_fault_plan",
    "collect_hotpath",
    "default_cache_dir",
    "run_task",
    "task_key",
]
