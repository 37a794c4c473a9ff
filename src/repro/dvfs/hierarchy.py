"""Hierarchical power management (Section 5.4).

The paper's hardware DVFS loop sits *under* a commercial, firmware-level
power manager operating at millisecond scales: the outer manager sets a
power objective, which manifests to the hardware loop as a restricted
frequency range (the paper's evaluations model this as the fixed
1.3-2.2 GHz window).

This module implements that outer loop so power-capped scenarios can be
studied end to end:

* :class:`HierarchicalPowerManager` - integrates measured power over a
  management interval and widens/narrows the allowed frequency window to
  keep average power under a budget.
* :class:`PowerManagedObjective` - wraps any per-epoch objective so its
  choices are confined to the manager's current window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.objectives import Objective, ObjectiveContext
from repro.core.sensitivity import LinearSensitivity


class HierarchicalPowerManager:
    """Millisecond-scale manager that caps average power via f_max.

    Operates on wall-clock intervals much longer than DVFS epochs.
    At each interval boundary it compares the interval's average power
    to the budget:

    * over budget  -> lower the allowed maximum frequency one step;
    * under budget by more than ``headroom`` -> raise it one step.

    The minimum frequency of the window never moves: the inner loop
    remains free to save energy.
    """

    def __init__(
        self,
        freq_grid: Sequence[float],
        power_budget: float,
        interval_ns: float = 100_000.0,
        headroom: float = 0.08,
    ) -> None:
        if not freq_grid:
            raise ValueError("need a frequency grid")
        if power_budget <= 0:
            raise ValueError("power budget must be positive")
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.grid: Tuple[float, ...] = tuple(freq_grid)
        self.power_budget = power_budget
        self.interval_ns = interval_ns
        self.headroom = headroom
        self._max_idx = len(self.grid) - 1
        self._energy_acc = 0.0
        self._time_acc = 0.0
        #: History of (time_ns, f_max) adjustments for inspection.
        self.adjustments: List[Tuple[float, float]] = []
        self._now = 0.0

    @property
    def f_max_allowed(self) -> float:
        return self.grid[self._max_idx]

    def observe_epoch(self, epoch_power: float, duration_ns: float) -> None:
        """Feed one elapsed DVFS epoch's average power."""
        self._energy_acc += epoch_power * duration_ns
        self._time_acc += duration_ns
        self._now += duration_ns
        if self._time_acc < self.interval_ns:
            return
        avg_power = self._energy_acc / self._time_acc
        if avg_power > self.power_budget and self._max_idx > 0:
            self._max_idx -= 1
            self.adjustments.append((self._now, self.f_max_allowed))
        elif (
            avg_power < self.power_budget * (1.0 - self.headroom)
            and self._max_idx < len(self.grid) - 1
        ):
            self._max_idx += 1
            self.adjustments.append((self._now, self.f_max_allowed))
        self._energy_acc = 0.0
        self._time_acc = 0.0


@dataclass
class PowerManagedObjective(Objective):
    """Confines an inner objective's choices to the manager's window."""

    inner: Objective
    manager: HierarchicalPowerManager

    def __post_init__(self) -> None:
        self.name = f"{self.inner.name}<=P"

    def choose(
        self,
        line: Optional[LinearSensitivity],
        freq_grid: Sequence[float],
        current_f: float,
        ctx: ObjectiveContext,
        domain: int = 0,
    ) -> float:
        window = [f for f in freq_grid if f <= self.manager.f_max_allowed]
        if not window:
            window = [freq_grid[0]]
        if current_f > window[-1]:
            current_f = window[-1]
        return self.inner.choose(line, window, current_f, ctx, domain)


__all__ = ["HierarchicalPowerManager", "PowerManagedObjective"]
