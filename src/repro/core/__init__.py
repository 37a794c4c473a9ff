"""The paper's primary contribution: frequency-sensitivity estimation,
PC-indexed prediction (PCSTALL), objectives and the DVFS controller."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.sensitivity import LinearSensitivity, fit_linear, aggregate
    from repro.core.estimators import (
        EstimationModel,
        StallModel,
        LeadingLoadModel,
        CriticalPathModel,
        CrispModel,
        WavefrontStallModel,
        WavefrontEstimate,
    )
    from repro.core.pc_table import PCTable, PCTableConfig
    from repro.core.predictors import (
        Predictor,
        ReactivePredictor,
        PCBasedPredictor,
        AccurateReactivePredictor,
        AccuratePCPredictor,
        PhaseHistoryPredictor,
        OraclePredictor,
        StaticPredictor,
    )
    from repro.core.objectives import (
        Objective,
        EDnPObjective,
        PerformanceCapObjective,
        QoSDeadlineObjective,
        StaticObjective,
    )
    from repro.core.controller import DvfsController
    from repro.core.hardware import storage_overhead_bytes, STORAGE_TABLE

__getattr__, __dir__ = lazy_exports(__name__, {
    "sensitivity": ("LinearSensitivity", "fit_linear", "aggregate"),
    "estimators": ("EstimationModel", "StallModel", "LeadingLoadModel", "CriticalPathModel",
                   "CrispModel", "WavefrontStallModel", "WavefrontEstimate"),
    "pc_table": ("PCTable", "PCTableConfig"),
    "predictors": ("Predictor", "ReactivePredictor", "PCBasedPredictor",
                   "AccurateReactivePredictor", "AccuratePCPredictor", "PhaseHistoryPredictor",
                   "OraclePredictor", "StaticPredictor"),
    "objectives": ("Objective", "EDnPObjective", "PerformanceCapObjective",
                   "QoSDeadlineObjective", "StaticObjective"),
    "controller": ("DvfsController",),
    "hardware": ("storage_overhead_bytes", "STORAGE_TABLE"),
})

__all__ = [
    "LinearSensitivity",
    "fit_linear",
    "aggregate",
    "EstimationModel",
    "StallModel",
    "LeadingLoadModel",
    "CriticalPathModel",
    "CrispModel",
    "WavefrontStallModel",
    "WavefrontEstimate",
    "PCTable",
    "PCTableConfig",
    "Predictor",
    "ReactivePredictor",
    "PCBasedPredictor",
    "AccurateReactivePredictor",
    "AccuratePCPredictor",
    "PhaseHistoryPredictor",
    "OraclePredictor",
    "StaticPredictor",
    "Objective",
    "EDnPObjective",
    "PerformanceCapObjective",
    "QoSDeadlineObjective",
    "StaticObjective",
    "DvfsController",
    "storage_overhead_bytes",
    "STORAGE_TABLE",
]
