"""Differential validation: invariant auditors and cross-checkers.

Two layers, both pure consumers of finished artifacts (nothing here is
imported by the simulation itself):

* :mod:`repro.validation.invariants` - post-hoc auditors that re-derive
  physical invariants (energy conservation, monotone clocks, committed
  conservation, residency normalisation, PC-counter sanity) from run
  artifacts and return structured :class:`Violation` records.
* :mod:`repro.validation.differential` - config-driven cross-checkers
  for the repo's bit-exactness claims: event vs reference engine,
  serial vs parallel sweeps, snapshot-fork vs clone oracle paths.

:mod:`repro.validation.check` wires both into the ``repro check`` CLI
command.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.validation.check import (
        CheckConfig,
        CheckReport,
        deep_check_config,
        quick_check_config,
        run_check,
    )
    from repro.validation.differential import (
        DiffReport,
        FieldMismatch,
        diff_run_results,
        engine_differential,
        first_divergence,
        make_task,
        oracle_fork_differential,
        sweep_differential,
    )
    from repro.validation.invariants import (
        Violation,
        audit_controller_log,
        audit_energy_breakdown,
        audit_epoch_records,
        audit_pc_table,
        audit_residency,
        audit_run_result,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "check": ("CheckConfig", "CheckReport", "deep_check_config", "quick_check_config",
              "run_check"),
    "differential": ("DiffReport", "FieldMismatch", "diff_run_results", "engine_differential",
                     "first_divergence", "make_task", "oracle_fork_differential",
                     "sweep_differential"),
    "invariants": ("Violation", "audit_controller_log", "audit_energy_breakdown",
                   "audit_epoch_records", "audit_pc_table", "audit_residency",
                   "audit_run_result"),
})

__all__ = [
    "CheckConfig",
    "CheckReport",
    "DiffReport",
    "FieldMismatch",
    "Violation",
    "audit_controller_log",
    "audit_energy_breakdown",
    "audit_epoch_records",
    "audit_pc_table",
    "audit_residency",
    "audit_run_result",
    "deep_check_config",
    "diff_run_results",
    "engine_differential",
    "first_divergence",
    "make_task",
    "oracle_fork_differential",
    "quick_check_config",
    "run_check",
    "sweep_differential",
]
