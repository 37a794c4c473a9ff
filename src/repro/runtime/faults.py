"""Deterministic fault injection for the sweep runtime.

Real sweep fleets lose cells to crashed workers, hung processes and
corrupted transfers; the retry machinery in
:mod:`repro.runtime.executor` exists to absorb exactly that. This module
makes those failures *reproducible* so tests and CI can prove the
machinery end to end:

* A :class:`FaultSpec` says what happens to one cell: ``raise`` (the
  worker throws :class:`InjectedFaultError`), ``hang`` (the worker
  sleeps ``hang_s`` seconds before running, long enough to trip the
  per-cell timeout), or ``corrupt`` (the worker returns a
  :class:`CorruptResult` marker instead of a real result). Faults fire
  on the first ``attempts`` tries of the cell and stop —
  ``attempts=None`` means every try (a *permanent* fault).
* A :class:`FaultPlan` is a set of specs; the first that matches a
  cell's label on an attempt fires.
* Plans cross the process boundary through the ``REPRO_FAULT_PLAN``
  environment variable as JSON (:meth:`FaultPlan.install` /
  :func:`active_fault_plan`), so sweep workers — which inherit the
  parent's environment — observe the same plan without any plumbing
  through task objects or cache keys.

Nothing here is randomised at run time: the same plan against the same
task list always injects the same faults on the same attempts, which is
what makes retry-policy tests assert exact counters.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

#: Environment variable carrying a JSON-encoded plan into workers.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Fault modes a spec may name.
MODE_RAISE = "raise"
MODE_HANG = "hang"
MODE_CORRUPT = "corrupt"
_MODES = (MODE_RAISE, MODE_HANG, MODE_CORRUPT)


class InjectedFaultError(RuntimeError):
    """A worker crashed because the active fault plan told it to."""


class CorruptResultError(RuntimeError):
    """A worker returned a corrupt payload instead of a result."""


@dataclass(frozen=True)
class CorruptResult:
    """Marker a faulted cell produces in place of a real result.

    The cell's attempt raises it as :class:`CorruptResultError`,
    exercising the same retry path as a worker whose shipped result
    fails the broker's integrity check.
    """

    label: str
    attempt: int


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: which cell, what happens, for how many tries.

    ``cell`` matches a task label (``workload/design``); ``"*"`` on
    either side of the slash is a wildcard, so ``"*/PCSTALL"`` faults
    every PCSTALL cell.
    """

    cell: str
    mode: str = MODE_RAISE
    #: Fault fires while ``attempt <= attempts``; None = every attempt.
    attempts: Optional[int] = 2
    #: Sleep duration for ``hang`` mode (pick it above the sweep's
    #: per-cell timeout so the parent observes a hung worker).
    hang_s: float = 5.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown fault mode {self.mode!r} (use {_MODES})")

    def matches(self, label: str) -> bool:
        if self.cell == label or self.cell == "*":
            return True
        if "/" not in self.cell or "/" not in label:
            return False
        want_w, want_d = self.cell.split("/", 1)
        have_w, have_d = label.split("/", 1)
        return want_w in ("*", have_w) and want_d in ("*", have_d)

    def active_on(self, attempt: int) -> bool:
        return self.attempts is None or attempt <= self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into a sweep."""

    specs: Tuple[FaultSpec, ...] = ()

    # -- selection ------------------------------------------------------

    def fault_for(self, label: str, attempt: int) -> Optional[FaultSpec]:
        """The spec that fires for this cell on this attempt, if any."""
        for spec in self.specs:
            if spec.matches(label) and spec.active_on(attempt):
                return spec
        return None

    def apply(self, label: str, attempt: int) -> Optional[CorruptResult]:
        """Inject the planned fault for (cell, attempt), if any.

        Raises :class:`InjectedFaultError` for ``raise`` mode, sleeps
        then falls through for ``hang`` mode (so the cell eventually
        produces its normal, correct result if nobody timed it out),
        and returns a :class:`CorruptResult` for ``corrupt`` mode.
        Returns None when no fault fires.
        """
        spec = self.fault_for(label, attempt)
        if spec is None:
            return None
        if spec.mode == MODE_RAISE:
            raise InjectedFaultError(
                f"injected crash: {label} attempt {attempt}"
            )
        if spec.mode == MODE_HANG:
            time.sleep(spec.hang_s)
            return None
        return CorruptResult(label, attempt)

    # -- serialisation --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "specs": [
                    {
                        "cell": s.cell,
                        "mode": s.mode,
                        "attempts": s.attempts,
                        "hang_s": s.hang_s,
                    }
                    for s in self.specs
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        data = json.loads(blob)
        return cls(specs=tuple(FaultSpec(**s) for s in data.get("specs", ())))

    # -- environment plumbing -------------------------------------------

    def install(self) -> None:
        """Publish the plan to this process and workers it forks later."""
        os.environ[FAULT_PLAN_ENV] = self.to_json()

    @staticmethod
    def uninstall() -> None:
        os.environ.pop(FAULT_PLAN_ENV, None)

    def __enter__(self) -> "FaultPlan":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


# Parsed-plan cache keyed on the raw env value, so the hot path costs
# one dict lookup per call and tests that swap plans are still seen.
_plan_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan published via ``REPRO_FAULT_PLAN``, or None."""
    global _plan_cache
    blob = os.environ.get(FAULT_PLAN_ENV)
    if not blob:
        return None
    cached_blob, cached_plan = _plan_cache
    if blob != cached_blob:
        try:
            cached_plan = FaultPlan.from_json(blob)
        except (ValueError, TypeError, KeyError):
            # A malformed plan must never take a real sweep down.
            cached_plan = None
        _plan_cache = (blob, cached_plan)
    return cached_plan


__all__ = [
    "FAULT_PLAN_ENV",
    "CorruptResult",
    "CorruptResultError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "MODE_CORRUPT",
    "MODE_HANG",
    "MODE_RAISE",
    "active_fault_plan",
]
