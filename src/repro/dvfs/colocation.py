"""Multi-tenant co-location: different apps pinned to different CUs.

Datacenter GPUs are increasingly space-shared: one tenant's kernels run
on one group of CUs while another tenant occupies the rest. This is the
scenario where *per-CU* V/f domains (the fine spatial granularity the
paper's IVR technology enables, Section 2.1) pay off most visibly: a
compute tenant's CUs can run at 2+ GHz while a memory-bound neighbour's
CUs idle along at 1.3 GHz — impossible with one chip-wide domain.

:class:`ColocationSimulation` runs several :class:`Tenant` s to
completion under a single DVFS controller and reports both the combined
metrics and per-tenant completion times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.controller import DvfsController
from repro.dvfs.oracle import OracleSampler
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel
from repro.power.energy import EnergyAccountant, EnergyBreakdown
from repro.power.model import PowerModel


@dataclass
class Tenant:
    """One co-located application and the CUs it owns."""

    name: str
    kernels: Sequence[Kernel]
    cu_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError(f"tenant {self.name!r} needs at least one kernel")
        if not self.cu_ids:
            raise ValueError(f"tenant {self.name!r} needs at least one CU")


@dataclass
class ColocationResult:
    """Outcome of a co-located run."""

    design: str
    epochs: int
    energy: EnergyBreakdown
    delay_ns: float
    completion_ns: Dict[str, float]
    frequency_residency: Dict[float, float]

    @property
    def ed2p(self) -> float:
        return self.energy.ed2p(self.delay_ns)


class ColocationSimulation:
    """Runs several tenants concurrently under one DVFS controller."""

    def __init__(
        self,
        tenants: Sequence[Tenant],
        controller: DvfsController,
        sim_config: SimConfig,
        max_epochs: int = 5_000,
        oracle_sample_freqs: Optional[int] = None,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        owned: set = set()
        for t in tenants:
            overlap = owned & set(t.cu_ids)
            if overlap:
                raise ValueError(f"CUs {sorted(overlap)} assigned to two tenants")
            owned |= set(t.cu_ids)
        self.tenants = list(tenants)
        self.controller = controller
        self.config = sim_config
        self.max_epochs = max_epochs
        self._oracle = (
            OracleSampler(sim_config, n_sample_freqs=oracle_sample_freqs)
            if controller.predictor.needs_truth
            else None
        )

    def _tenant_done(self, gpu: Gpu, tenant: Tenant) -> bool:
        return all(gpu.cus[c].idle for c in tenant.cu_ids)

    def run(self) -> ColocationResult:
        cfg = self.config
        gpu = Gpu(cfg.gpu, initial_freq_ghz=cfg.dvfs.reference_freq_ghz)
        accountant = EnergyAccountant(cfg.gpu, PowerModel(cfg.power))
        pending: Dict[str, List[Kernel]] = {}
        for t in self.tenants:
            queue = list(t.kernels)
            gpu.load_kernel(queue.pop(0), cu_ids=t.cu_ids)
            pending[t.name] = queue

        completion: Dict[str, float] = {}
        predictor = self.controller.predictor
        epochs = 0
        while epochs < self.max_epochs:
            for t in self.tenants:
                if t.name in completion:
                    continue
                if self._tenant_done(gpu, t):
                    if pending[t.name]:
                        gpu.load_kernel(pending[t.name].pop(0), cu_ids=t.cu_ids)
                    else:
                        completion[t.name] = max(
                            gpu.cus[c].last_retire_time for c in t.cu_ids
                        )
            if len(completion) == len(self.tenants):
                break

            sample = None
            if self._oracle is not None:
                sample = self._oracle.sample(gpu, cfg.dvfs.epoch_ns)
                if predictor.needs_future_truth:
                    predictor.set_future_truth(sample.lines)  # type: ignore[attr-defined]
            freqs = self.controller.decide()
            gpu.set_domain_frequencies(freqs, cfg.dvfs.transition_latency_ns)
            result = gpu.run_epoch(cfg.dvfs.epoch_ns)
            epochs += 1
            accountant.add_epoch(result)
            truth = sample.lines if (sample and predictor.needs_elapsed_truth) else None
            self.controller.observe(result, true_domain_lines=truth)

        delay = max(completion.values()) if completion else gpu.time
        return ColocationResult(
            design=predictor.name,
            epochs=epochs,
            energy=accountant.breakdown,
            delay_ns=delay,
            completion_ns=completion,
            frequency_residency=self.controller.log.frequency_residency(
                cfg.dvfs.frequencies_ghz
            ),
        )


__all__ = ["Tenant", "ColocationSimulation", "ColocationResult"]
