"""The DVFS design registry (TABLE III).

=========  ====================  =================
Name       Estimation model      Control mechanism
=========  ====================  =================
STALL      Stall model           Reactive
LEAD       Leading load          Reactive
CRIT       Critical path         Reactive
CRISP      CRISP GPU model       Reactive
ACCREAC    Accurate (oracle)     Reactive
PCSTALL    Stall - wavefront     PC-based
ACCPC      Accurate (oracle)     PC-based
ORACLE     Accurate (oracle)     Oracle
=========  ====================  =================

Plus the three static baselines at 1.3 / 1.7 / 2.2 GHz.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimConfig
from repro.core.controller import DvfsController
from repro.core.estimators import (
    CrispModel,
    CriticalPathModel,
    LeadingLoadModel,
    StallModel,
    WavefrontCritModel,
    WavefrontLeadModel,
    WavefrontStallModel,
)
from repro.core.objectives import EDnPObjective, Objective, StaticObjective
from repro.core.pc_table import PCTableConfig
from repro.core.predictors import (
    AccuratePCPredictor,
    AccurateReactivePredictor,
    OraclePredictor,
    PCBasedPredictor,
    PhaseHistoryPredictor,
    ReactivePredictor,
    StaticPredictor,
)

#: All dynamic designs evaluated in the paper, in TABLE III order.
DESIGN_NAMES = (
    "STALL",
    "LEAD",
    "CRIT",
    "CRISP",
    "ACCREAC",
    "PCSTALL",
    "ACCPC",
    "ORACLE",
)

#: Extension designs beyond TABLE III (see DESIGN.md Section 6):
#: HISTORY - the CPU-era global phase-history-table predictor [55, 57];
#: PCCRISP/PCLEAD/PCCRIT - the PC-based mechanism fed by alternative
#: estimators (the paper notes its predictor could be combined with any
#: estimation model and picked STALL for simplicity, Section 5.3);
#: LEARNED - a trained sensitivity model from the model registry
#: (:mod:`repro.learn`), addressed as ``LEARNED@<ref>``.
EXTENSION_DESIGNS = ("HISTORY", "PCCRISP", "PCLEAD", "PCCRIT", "LEARNED")


def static_design_name(f_ghz: float) -> str:
    return f"STATIC@{f_ghz:.1f}"


def learned_design_name(model_ref: str) -> str:
    """The design string that pins a specific registry model.

    Embedding the reference in the design name means the existing sweep
    cache keys, trace headers and replay opens all carry the model
    identity with zero extra plumbing.
    """
    return f"LEARNED@{model_ref}"


def learned_artifact_id(design: str) -> Optional[str]:
    """The artifact id a ``LEARNED@<ref>`` design runs, or None.

    A registry name is mutable (retraining ``rls`` points it at a new
    artifact), so a cache key names the artifact, not the name. None for
    every other design and for a reference that does not resolve (the
    cell then fails when it builds its controller).
    """
    if not design.startswith("LEARNED@"):
        return None
    from repro.learn.registry import ModelRegistry, ModelResolutionError

    try:
        return ModelRegistry().resolve(design.split("@", 1)[1])
    except ModelResolutionError:
        return None


def make_controller(
    design: str,
    sim_config: SimConfig,
    objective: Optional[Objective] = None,
    table_config: Optional[PCTableConfig] = None,
    cus_per_table: int = 1,
    model_ref: Optional[str] = None,
) -> DvfsController:
    """Build the controller for a named design.

    Args:
        design: one of :data:`DESIGN_NAMES` / :data:`EXTENSION_DESIGNS`,
            ``"STATIC@<f>"``, or ``"LEARNED@<model-ref>"``.
        objective: frequency-selection objective; defaults to ED2P
            (the paper's headline metric). Ignored for static designs.
        table_config: PC table geometry for the PC-based designs.
        cus_per_table: PC-table sharing granularity.
        model_ref: default registry reference for a bare ``"LEARNED"``
            design (``repro serve --model``); a ``LEARNED@<ref>`` design
            always wins over this.
    """
    gpu_cfg = sim_config.gpu
    obj = objective or EDnPObjective(2)
    tbl = table_config or PCTableConfig(instruction_bytes=gpu_cfg.instruction_bytes)

    if design.startswith("STATIC@"):
        f = float(design.split("@", 1)[1])
        return DvfsController(
            StaticPredictor(gpu_cfg.n_domains), StaticObjective(f), sim_config
        )
    if design == "LEARNED" or design.startswith("LEARNED@"):
        # Lazy import: learn.evaluate reaches back into the design
        # registry via run_task, so a top-level import would cycle.
        from repro.learn.models import LearnedPredictor
        from repro.learn.registry import ModelResolutionError, load_model

        ref = design.split("@", 1)[1] if "@" in design else model_ref
        if not ref:
            raise ModelResolutionError(
                "LEARNED needs a model reference: use 'LEARNED@<ref>' or "
                "pass model_ref (repro serve --model <ref>)"
            )
        # A fresh model instance per controller: online-updatable models
        # mutate while serving, and sessions must not share state.
        return DvfsController(
            LearnedPredictor(load_model(ref), gpu_cfg), obj, sim_config
        )
    if design == "STALL":
        predictor = ReactivePredictor(StallModel(), gpu_cfg)
    elif design == "LEAD":
        predictor = ReactivePredictor(LeadingLoadModel(), gpu_cfg)
    elif design == "CRIT":
        predictor = ReactivePredictor(CriticalPathModel(), gpu_cfg)
    elif design == "CRISP":
        predictor = ReactivePredictor(CrispModel(), gpu_cfg)
    elif design == "ACCREAC":
        predictor = AccurateReactivePredictor(gpu_cfg)
    elif design == "PCSTALL":
        predictor = PCBasedPredictor(
            gpu_cfg,
            estimator=WavefrontStallModel(),
            table_config=tbl,
            cus_per_table=cus_per_table,
        )
    elif design == "ACCPC":
        predictor = AccuratePCPredictor(
            gpu_cfg,
            estimator=WavefrontStallModel(),
            table_config=tbl,
            cus_per_table=cus_per_table,
        )
    elif design == "ORACLE":
        predictor = OraclePredictor(gpu_cfg.n_domains)
    elif design == "HISTORY":
        predictor = PhaseHistoryPredictor(CrispModel(), gpu_cfg)
    elif design in ("PCCRISP", "PCLEAD", "PCCRIT"):
        estimator = {
            "PCCRISP": CrispModel,
            "PCLEAD": WavefrontLeadModel,
            "PCCRIT": WavefrontCritModel,
        }[design]()
        predictor = PCBasedPredictor(
            gpu_cfg,
            estimator=estimator,
            table_config=tbl,
            cus_per_table=cus_per_table,
        )
        predictor.name = design
    else:
        known = ", ".join(sorted(DESIGN_NAMES + EXTENSION_DESIGNS))
        raise ValueError(
            f"unknown design {design!r}; known: {known} "
            f"(plus STATIC@<f> and LEARNED@<model-ref>)"
        )
    return DvfsController(predictor, obj, sim_config)


__all__ = [
    "DESIGN_NAMES",
    "EXTENSION_DESIGNS",
    "learned_artifact_id",
    "learned_design_name",
    "make_controller",
    "static_design_name",
]
