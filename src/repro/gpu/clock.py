"""V/f domains and the domain-to-CU map.

A :class:`ClockDomain` groups one or more CUs (plus their L1 caches,
Figure 4) behind a single IVR + FLL, so all its CUs share one frequency.
Section 6.5 evaluates domain granularities from one CU per domain up to
32; :class:`DomainMap` expresses that mapping.

Frequency changes are only applied at epoch boundaries (fixed-time-epoch
control, Section 3.1) and cost the transition latency of the V/f
technology: the domain's CUs are frozen for that long.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.config import GpuConfig


@dataclass
class ClockDomain:
    """One V/f domain: a set of CU ids sharing a frequency."""

    domain_id: int
    cu_ids: Tuple[int, ...]
    frequency_ghz: float
    transitions: int = 0

    def clone(self) -> "ClockDomain":
        return ClockDomain(self.domain_id, self.cu_ids, self.frequency_ghz, self.transitions)


class DomainMap:
    """All V/f domains of the GPU and their current frequencies."""

    def __init__(self, gpu_config: GpuConfig, initial_freq_ghz: float) -> None:
        self.domains: List[ClockDomain] = []
        per = gpu_config.cus_per_domain
        for d in range(gpu_config.n_domains):
            cu_ids = tuple(range(d * per, (d + 1) * per))
            self.domains.append(ClockDomain(d, cu_ids, initial_freq_ghz))

    def __len__(self) -> int:
        return len(self.domains)

    def __iter__(self):
        return iter(self.domains)

    def __getitem__(self, idx: int) -> ClockDomain:
        return self.domains[idx]

    def frequencies(self) -> List[float]:
        return [d.frequency_ghz for d in self.domains]

    def clone(self) -> "DomainMap":
        out = DomainMap.__new__(DomainMap)
        out.domains = [d.clone() for d in self.domains]
        return out

    def capture(self) -> tuple:
        """Flat-tuple snapshot of the mutable per-domain state."""
        return tuple((d.frequency_ghz, d.transitions) for d in self.domains)

    def restore_capture(self, cap: tuple) -> None:
        for domain, (freq, transitions) in zip(self.domains, cap):
            domain.frequency_ghz = freq
            domain.transitions = transitions


__all__ = ["ClockDomain", "DomainMap"]
