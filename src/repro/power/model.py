"""CMOS power model: V(f) map, dynamic & leakage power, IVR efficiency.

The paper uses a proprietary AMD power model validated against a Radeon
VII. This module substitutes the standard analytic model the paper's own
motivation rests on (``P = C V^2 A f``, Section 1):

* **Voltage map** - each frequency on the DVFS grid requires a voltage;
  we use a linear V(f) over the IVR's 1.3-2.2 GHz range (voltage-adaptive
  FLLs make f track V, Section 2.1), giving the cubic-ish P(f) the paper
  exploits.
* **Dynamic power** - scales with V^2 * f and the measured activity
  factor of the epoch (issue-slot occupancy), so stalled CUs burn less.
* **Leakage** - weakly voltage-dependent across the narrow IVR range
  (Section 5: "leakage ... does not significantly vary"), scaled by a
  temperature factor.
* **IVR efficiency** - conversion losses rise away from the regulator's
  peak-efficiency voltage; delivered power is divided by the efficiency.

Power units are arbitrary but consistent; every paper metric we reproduce
(ED^nP ratios, % energy savings, frequency residency) is relative, so the
absolute scale cancels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.config import PowerConfig

#: Most frequencies one :class:`PowerModel` memoises (a DVFS grid has
#: about ten); terms of any further frequency are computed, not stored.
POWER_MEMO_MAX_FREQS = 64


def voltage_for_frequency(cfg: PowerConfig, f_ghz: float) -> float:
    """Supply voltage required to sustain ``f_ghz``, linear V(f) map.

    Clamped at the endpoints: frequencies outside the calibrated range
    reuse the boundary voltage (the IVR cannot go lower/higher).
    """
    if f_ghz <= cfg.f_min_ghz:
        return cfg.v_min
    if f_ghz >= cfg.f_max_ghz:
        return cfg.v_max
    frac = (f_ghz - cfg.f_min_ghz) / (cfg.f_max_ghz - cfg.f_min_ghz)
    return cfg.v_min + frac * (cfg.v_max - cfg.v_min)


@dataclass(frozen=True)
class PowerModel:
    """Evaluates CU-domain and memory-subsystem power."""

    config: PowerConfig
    #: f -> (C_eff * V(f)^2, leakage, IVR efficiency), see :meth:`terms`.
    _terms: Dict[float, Tuple[float, float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def voltage(self, f_ghz: float) -> float:
        return voltage_for_frequency(self.config, f_ghz)

    def ivr_efficiency(self, v: float) -> float:
        """Regulator efficiency at output voltage ``v`` (inverted-U curve)."""
        cfg = self.config
        span = max(abs(cfg.ivr_peak_voltage - cfg.v_min), abs(cfg.v_max - cfg.ivr_peak_voltage))
        if span <= 0:
            return cfg.ivr_efficiency_peak
        distance = min(1.0, abs(v - cfg.ivr_peak_voltage) / span)
        return cfg.ivr_efficiency_peak - distance * (
            cfg.ivr_efficiency_peak - cfg.ivr_efficiency_floor
        )

    def dynamic_power_per_cu(self, f_ghz: float, activity: float) -> float:
        """Dynamic power of one CU at frequency ``f_ghz``.

        ``activity`` is the epoch's issue-slot occupancy in [0, 1]; an
        idle-activity floor models the clock tree and always-on logic.
        """
        cfg = self.config
        v = self.voltage(f_ghz)
        a = cfg.idle_activity + (1.0 - cfg.idle_activity) * min(max(activity, 0.0), 1.0)
        return cfg.c_eff_per_cu * v * v * a * f_ghz

    def leakage_power_per_cu(self, f_ghz: float) -> float:
        cfg = self.config
        v = self.voltage(f_ghz)
        ratio = (v / cfg.v_max) ** cfg.leakage_voltage_exponent
        return cfg.leakage_per_cu_at_vmax * ratio * cfg.temperature_factor

    def terms(self, f_ghz: float) -> Tuple[float, float, float]:
        """``(C_eff * V(f)^2, leakage, IVR efficiency)`` at ``f_ghz``: the
        per-frequency factors of :meth:`cu_power`, memoised."""
        terms = self._terms.get(f_ghz)
        if terms is None:
            v = self.voltage(f_ghz)
            terms = (self.config.c_eff_per_cu * v * v,
                     self.leakage_power_per_cu(f_ghz), self.ivr_efficiency(v))
            if len(self._terms) < POWER_MEMO_MAX_FREQS:
                self._terms[f_ghz] = terms
        return terms

    def cu_power(self, f_ghz: float, activity: float) -> float:
        """Total wall power drawn for one CU, including IVR losses."""
        cvv, leakage, efficiency = self.terms(f_ghz)
        idle = self.config.idle_activity
        a = idle + (1.0 - idle) * min(max(activity, 0.0), 1.0)
        # dynamic_power_per_cu's products in its order, so bit-identical.
        return (cvv * a * f_ghz + leakage) / efficiency

    def memory_power(self, n_l2_banks: int) -> float:
        """Constant power of the fixed-frequency memory subsystem."""
        return self.config.memory_power_per_bank * n_l2_banks

    def transition_energy(self, n_transitions: int) -> float:
        """Energy charged for ``n_transitions`` V/f changes."""
        return self.config.transition_energy * n_transitions


__all__ = ["POWER_MEMO_MAX_FREQS", "PowerModel", "voltage_for_frequency"]
