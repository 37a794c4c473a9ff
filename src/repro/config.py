"""Configuration objects for the GPU simulator, the DVFS system and the power model.

The defaults follow the evaluation platform of the paper (Section 5): a
64-CU AMD Vega-class GPU with 16 shared L2 banks, per-CU V/f domains
spanning 1.3-2.2 GHz in 100 MHz steps, a memory subsystem fixed at
1.6 GHz, and epoch-length-dependent V/f transition latencies.

Tests and benchmarks typically scale ``n_cus`` and workload sizes down so
the whole suite runs quickly; every experiment accepts a config so the
paper-scale platform is a parameter change, not a code change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple


def default_frequency_grid() -> Tuple[float, ...]:
    """The paper's 10 V/f states: 1.3 GHz to 2.2 GHz in 100 MHz steps."""
    return tuple(round(1.3 + 0.1 * i, 2) for i in range(10))


#: V/f transition latency (ns) assumed for each epoch duration (ns),
#: from Section 5: 4 ns @ 1 us, 40 ns @ 10 us, 200 ns @ 50 us, 400 ns @ 100 us.
TRANSITION_LATENCY_TABLE_NS = (
    (1_000.0, 4.0),
    (10_000.0, 40.0),
    (50_000.0, 200.0),
    (100_000.0, 400.0),
)


def transition_latency_ns(epoch_ns: float) -> float:
    """Transition latency for a given epoch duration.

    Uses the paper's four calibration points and linear interpolation in
    between; clamps outside the calibrated range.
    """
    table = TRANSITION_LATENCY_TABLE_NS
    if epoch_ns <= table[0][0]:
        return table[0][1]
    if epoch_ns >= table[-1][0]:
        return table[-1][1]
    for (e0, l0), (e1, l1) in zip(table, table[1:]):
        if e0 <= epoch_ns <= e1:
            frac = (epoch_ns - e0) / (e1 - e0)
            return l0 + frac * (l1 - l0)
    return table[-1][1]


@dataclass(frozen=True)
class MemoryConfig:
    """Timing/geometry of the shared memory subsystem (fixed V/f domain).

    The L2 and DRAM operate in a fixed 1.6 GHz domain (paper Section 5),
    so their latencies are expressed in nanoseconds. L1 lives inside the
    CU's V/f domain (Figure 4) and is therefore expressed in CU cycles.
    """

    l1_hit_cycles: int = 16
    n_l2_banks: int = 16
    l2_interconnect_ns: float = 30.0
    l2_service_ns: float = 2.0
    l2_hit_extra_ns: float = 40.0
    n_dram_channels: int = 8
    dram_service_ns: float = 2.0
    dram_extra_ns: float = 180.0
    #: Aggregate L2 request rate (requests/ns) beyond which thrashing
    #: starts degrading the effective hit rate (second-order effect that
    #: produces the FwdSoft behaviour of Section 6.2).
    l2_thrash_rate_per_ns: float = 1.2
    #: Maximum fraction of L2 hits converted to misses under full thrash.
    l2_thrash_max_degradation: float = 0.6


@dataclass(frozen=True)
class GpuConfig:
    """Geometry and microarchitecture of the simulated GPU."""

    n_cus: int = 64
    waves_per_cu: int = 40
    issue_width: int = 2
    instruction_bytes: int = 4
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: CUs per V/f domain (Section 6.5 scales this from 1 to 32).
    cus_per_domain: int = 1
    #: Memory/L2 domain frequency (GHz); fixed, not DVFS-managed.
    memory_freq_ghz: float = 1.6
    #: CUs in different V/f domains are interleaved in time quanta of
    #: this length; the shared memory subsystem sees requests in
    #: near-global-time order within a quantum. Small quanta keep
    #: cross-domain arrival skew (a simulation artifact) well below real
    #: contention effects.
    sync_quantum_ns: float = 10.0
    #: Timing-engine implementation. ``"event"`` (the default) keeps a
    #: maintained ready queue plus a wakeup heap per CU and batches
    #: straight-line compute; ``"reference"`` is the original per-cycle
    #: rescan loop, kept as the golden baseline for the bit-identical
    #: equivalence tests. Both produce identical results.
    engine: str = "event"

    def __post_init__(self) -> None:
        if self.engine not in ("event", "reference"):
            raise ValueError(
                f"engine must be 'event' or 'reference', got {self.engine!r}"
            )
        if self.n_cus <= 0:
            raise ValueError("n_cus must be positive")
        if self.waves_per_cu < 1:
            raise ValueError(f"waves_per_cu must be >= 1, got {self.waves_per_cu}")
        if self.issue_width < 1:
            raise ValueError(f"issue_width must be >= 1, got {self.issue_width}")
        # A zero quantum never advances Gpu.run_epoch's interleaving clock.
        if not (math.isfinite(self.sync_quantum_ns) and self.sync_quantum_ns > 0):
            raise ValueError(
                f"sync_quantum_ns must be finite and > 0, got {self.sync_quantum_ns}"
            )
        if self.cus_per_domain <= 0 or self.n_cus % self.cus_per_domain:
            raise ValueError(
                f"cus_per_domain ({self.cus_per_domain}) must evenly divide "
                f"n_cus ({self.n_cus})"
            )

    @property
    def n_domains(self) -> int:
        return self.n_cus // self.cus_per_domain


@dataclass(frozen=True)
class DvfsConfig:
    """Parameters of the DVFS control system."""

    epoch_ns: float = 1_000.0
    frequencies_ghz: Tuple[float, ...] = field(default_factory=default_frequency_grid)
    #: Frequency every domain starts at, and the static-baseline reference
    #: used throughout the evaluation (Figures 15-17).
    reference_freq_ghz: float = 1.7
    #: Override; when None the paper's epoch-dependent table is used.
    transition_latency_override_ns: float | None = None

    def __post_init__(self) -> None:
        if self.epoch_ns <= 0:
            raise ValueError("epoch_ns must be positive")
        grid = self.frequencies_ghz
        if not grid:
            raise ValueError("frequency grid must not be empty")
        if sorted(grid) != list(grid):
            raise ValueError("frequency grid must be sorted ascending")
        if len(set(grid)) != len(grid):
            raise ValueError(f"frequency grid points must be distinct, got {grid}")
        if not all(math.isfinite(f) and f > 0 for f in grid):
            raise ValueError(f"frequency grid points must be finite and > 0, got {grid}")
        if self.reference_freq_ghz not in grid:
            raise ValueError("reference frequency must be on the grid")

    @property
    def transition_latency_ns(self) -> float:
        if self.transition_latency_override_ns is not None:
            return self.transition_latency_override_ns
        return transition_latency_ns(self.epoch_ns)

    @property
    def f_min(self) -> float:
        return self.frequencies_ghz[0]

    @property
    def f_max(self) -> float:
        return self.frequencies_ghz[-1]


@dataclass(frozen=True)
class PowerConfig:
    """Analytic CMOS power model parameters (see `repro.power.model`).

    The dynamic/leakage split and the voltage-frequency map are calibrated
    so that the 1.3->2.2 GHz range spans roughly a 2.5x dynamic power range,
    consistent with the wide GPU voltage ranges the paper leans on.
    """

    #: Voltage at the bottom/top of the frequency grid (V). Calibrated so
    #: dlnP/dlnf is ~2.5 at mid-range: steep enough that downclocking
    #: memory phases pays, shallow enough that boosting genuinely
    #: compute-bound phases pays too (Figure 16's high-frequency
    #: residency for dgemm/hacc).
    v_min: float = 0.68
    v_max: float = 1.05
    f_min_ghz: float = 1.3
    f_max_ghz: float = 2.2
    #: Effective switched capacitance per CU (arbitrary power units per
    #: V^2*GHz at activity 1.0).
    c_eff_per_cu: float = 1.0
    #: Idle-activity floor: clock tree and always-on logic.
    idle_activity: float = 0.45
    #: Leakage power per CU at v_max and nominal temperature.
    leakage_per_cu_at_vmax: float = 0.35
    #: Leakage voltage exponent (weak sensitivity across the IVR range).
    leakage_voltage_exponent: float = 1.5
    #: Temperature factor applied to leakage (1.0 = nominal).
    temperature_factor: float = 1.0
    #: Constant power of the fixed-frequency memory subsystem, per L2 bank.
    memory_power_per_bank: float = 0.5
    #: IVR efficiency at the best and worst points of its curve.
    ivr_efficiency_peak: float = 0.93
    ivr_efficiency_floor: float = 0.82
    #: Voltage (V) where IVR efficiency peaks.
    ivr_peak_voltage: float = 0.95
    #: Energy charged per V/f transition, per domain (power-units * ns).
    transition_energy: float = 2.0

    def __post_init__(self) -> None:
        # A served session builds this from the peer's open frame, so
        # reject every value that would make power non-positive, fall as
        # f rises, or divide by zero.
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("c_eff_per_cu", "leakage_per_cu_at_vmax", "temperature_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("ivr_efficiency_peak", "ivr_efficiency_floor"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {getattr(self, name)}")
        if not 0 < self.v_min < self.v_max:
            raise ValueError(
                f"need 0 < v_min < v_max, got v_min={self.v_min}, v_max={self.v_max}"
            )
        if not 0 < self.f_min_ghz < self.f_max_ghz:
            raise ValueError(
                f"need 0 < f_min_ghz < f_max_ghz, got f_min_ghz={self.f_min_ghz}, "
                f"f_max_ghz={self.f_max_ghz}"
            )
        if not 0 <= self.idle_activity <= 1:
            raise ValueError(f"idle_activity must be in [0, 1], got {self.idle_activity}")
        for name in ("memory_power_per_bank", "transition_energy"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class SimConfig:
    """Bundle of all configuration for an end-to-end DVFS simulation."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    dvfs: DvfsConfig = field(default_factory=DvfsConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    seed: int = 42

    def __post_init__(self) -> None:
        # V(f) clamps outside the power model's calibrated range, so an
        # outside grid point would be mispriced by every objective.
        lo, hi = self.power.f_min_ghz, self.power.f_max_ghz
        outside = [f for f in self.dvfs.frequencies_ghz if not lo <= f <= hi]
        if outside:
            raise ValueError(
                f"frequency grid points {outside} lie outside the power model's "
                f"calibrated range [{lo}, {hi}] GHz"
            )


def small_config(
    n_cus: int = 4,
    waves_per_cu: int = 8,
    epoch_ns: float = 1_000.0,
    cus_per_domain: int = 1,
    seed: int = 42,
) -> SimConfig:
    """A scaled-down platform used by tests and quick benchmarks."""
    return SimConfig(
        gpu=GpuConfig(
            n_cus=n_cus,
            waves_per_cu=waves_per_cu,
            cus_per_domain=cus_per_domain,
            memory=MemoryConfig(n_l2_banks=max(2, n_cus)),
        ),
        dvfs=DvfsConfig(epoch_ns=epoch_ns),
        seed=seed,
    )


def paper_config(epoch_ns: float = 1_000.0, cus_per_domain: int = 1) -> SimConfig:
    """The paper's evaluation platform: 64 CUs, 16 L2 banks, 40 waves/CU."""
    return SimConfig(
        gpu=GpuConfig(n_cus=64, waves_per_cu=40, cus_per_domain=cus_per_domain),
        dvfs=DvfsConfig(epoch_ns=epoch_ns),
    )


__all__ = [
    "MemoryConfig",
    "GpuConfig",
    "DvfsConfig",
    "PowerConfig",
    "SimConfig",
    "default_frequency_grid",
    "transition_latency_ns",
    "small_config",
    "paper_config",
]
