"""Per-epoch energy accounting and ED^nP metrics.

The :class:`EnergyAccountant` consumes :class:`~repro.gpu.gpu.EpochResult`
objects and accumulates energy per V/f domain plus the shared memory
subsystem. The final ``ED^nP`` of a run is ``E * D^n`` with ``E`` total
energy and ``D`` total elapsed time; the paper normalises these against a
static 1.7 GHz execution of the same workload (Figures 15-17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import GpuConfig
from repro.gpu.gpu import EpochResult
from repro.power.model import PowerModel


def ed_n_p(energy: float, delay: float, n: int = 2) -> float:
    """Energy-Delay^n Product."""
    if energy < 0 or delay < 0:
        raise ValueError("energy and delay must be non-negative")
    return energy * delay**n


@dataclass
class EnergyBreakdown:
    """Cumulative energy of a run, by component."""

    cu_dynamic_and_leakage: float = 0.0
    memory: float = 0.0
    transitions: float = 0.0
    elapsed_ns: float = 0.0

    @property
    def total(self) -> float:
        return self.cu_dynamic_and_leakage + self.memory + self.transitions

    # ED^nP takes the delay explicitly: a run's completion delay
    # (RunResult.delay_ns) differs from the windowed ``elapsed_ns``.
    def edp(self, delay_ns: float) -> float:
        return ed_n_p(self.total, delay_ns, 1)

    def ed2p(self, delay_ns: float) -> float:
        return ed_n_p(self.total, delay_ns, 2)

    def ednp(self, n: int, delay_ns: float) -> float:
        return ed_n_p(self.total, delay_ns, n)


class EnergyAccountant:
    """Accumulates energy over epochs for a whole run."""

    def __init__(self, gpu_config: GpuConfig, power_model: PowerModel) -> None:
        self.gpu_config = gpu_config
        self.power = power_model
        self.breakdown = EnergyBreakdown()
        #: Per-epoch total power samples (profiling/inspection).
        self.power_trace: List[float] = []

    def epoch_activity(self, result: EpochResult, cu_id: int) -> float:
        """Issue-slot occupancy of a CU over the epoch, in [0, 1]."""
        f = result.frequencies_ghz[self._domain_of(cu_id)]
        cycles = result.duration_ns * f
        slots = cycles * self.gpu_config.issue_width
        if slots <= 0:
            return 0.0
        return min(1.0, result.cu_stats[cu_id].issued / slots)

    def _domain_of(self, cu_id: int) -> int:
        return cu_id // self.gpu_config.cus_per_domain

    def add_epoch(self, result: EpochResult) -> float:
        """Account one epoch; returns the energy it consumed."""
        dt = result.duration_ns
        cu_energy = 0.0
        for cu_id in range(self.gpu_config.n_cus):
            f = result.frequencies_ghz[self._domain_of(cu_id)]
            activity = self.epoch_activity(result, cu_id)
            cu_energy += self.power.cu_power(f, activity) * dt
        mem_energy = self.power.memory_power(self.gpu_config.memory.n_l2_banks) * dt
        trans_energy = self.power.transition_energy(result.transitions)

        self.breakdown.cu_dynamic_and_leakage += cu_energy
        self.breakdown.memory += mem_energy
        self.breakdown.transitions += trans_energy
        self.breakdown.elapsed_ns += dt
        epoch_total = cu_energy + mem_energy + trans_energy
        self.power_trace.append(epoch_total / dt if dt > 0 else 0.0)
        return epoch_total


__all__ = ["EnergyAccountant", "EnergyBreakdown", "ed_n_p"]
