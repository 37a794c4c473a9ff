"""DVFS orchestration: the fork-and-pre-execute oracle, the TABLE III
design registry, and the end-to-end epoch-driven simulation loop."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dvfs.oracle import OracleSampler, OracleSample
    from repro.dvfs.designs import (
        DESIGN_NAMES,
        EXTENSION_DESIGNS,
        make_controller,
    )
    from repro.dvfs.colocation import ColocationSimulation, ColocationResult, Tenant
    from repro.dvfs.hierarchy import HierarchicalPowerManager, PowerManagedObjective
    from repro.dvfs.simulation import DvfsSimulation, RunResult

__getattr__, __dir__ = lazy_exports(__name__, {
    "oracle": ("OracleSampler", "OracleSample"),
    "designs": ("DESIGN_NAMES", "EXTENSION_DESIGNS", "make_controller"),
    "colocation": ("ColocationSimulation", "ColocationResult", "Tenant"),
    "hierarchy": ("HierarchicalPowerManager", "PowerManagedObjective"),
    "simulation": ("DvfsSimulation", "RunResult"),
})

__all__ = [
    "OracleSampler",
    "OracleSample",
    "DESIGN_NAMES",
    "EXTENSION_DESIGNS",
    "make_controller",
    "HierarchicalPowerManager",
    "PowerManagedObjective",
    "ColocationSimulation",
    "ColocationResult",
    "Tenant",
    "DvfsSimulation",
    "RunResult",
]
