"""Analysis & experiment drivers for every table/figure of the paper."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.phases import (
        SensitivityTrace,
        profile_sensitivity,
        consecutive_epoch_change,
        same_pc_iteration_change,
        wavefront_slot_change,
        offset_bits_sweep,
    )
    from repro.analysis.linearity import linearity_study, LinearityResult
    from repro.analysis.report import format_table, format_series, geometric_mean
    from repro.analysis.experiments import (
        ExperimentSetup,
        QUICK_WORKLOADS,
        EVAL_DESIGNS,
        design_matrix,
        epoch_duration_trend,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "phases": ("SensitivityTrace", "profile_sensitivity", "consecutive_epoch_change",
               "same_pc_iteration_change", "wavefront_slot_change", "offset_bits_sweep"),
    "linearity": ("linearity_study", "LinearityResult"),
    "report": ("format_table", "format_series", "geometric_mean"),
    "experiments": ("ExperimentSetup", "QUICK_WORKLOADS", "EVAL_DESIGNS", "design_matrix",
                    "epoch_duration_trend"),
})

__all__ = [
    "SensitivityTrace",
    "profile_sensitivity",
    "consecutive_epoch_change",
    "same_pc_iteration_change",
    "wavefront_slot_change",
    "offset_bits_sweep",
    "linearity_study",
    "LinearityResult",
    "format_table",
    "format_series",
    "geometric_mean",
    "ExperimentSetup",
    "QUICK_WORKLOADS",
    "EVAL_DESIGNS",
    "design_matrix",
    "epoch_duration_trend",
]
