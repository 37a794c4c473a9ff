"""``repro check`` orchestration: invariants + differentials in one pass.

The check harness runs a small (workload x design) matrix end to end
with telemetry attached, audits every artifact the run produced
(:func:`~repro.validation.invariants.audit_run_result`, the controller
log, the PC tables, the epoch record stream), then exercises the three
differential pairs from :mod:`repro.validation.differential` (event vs
reference engine, serial vs parallel sweep, snapshot-fork vs clone
oracle). Everything lands in one :class:`CheckReport`; ``repro check``
exits nonzero iff ``report.ok`` is false.

Two presets: the default (two workloads at CI-smoke scale) and
``--deep`` (the five quickstart workloads at figure scale). Both run
uncached - a check that compares a cache entry against itself proves
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.experiments import QUICK_WORKLOADS
from repro.config import SimConfig, small_config
from repro.telemetry.recorder import EpochTraceRecorder, TelemetryConfig
from repro.validation.differential import (
    DiffReport,
    engine_differential,
    make_task,
    oracle_fork_differential,
    sweep_differential,
)
from repro.validation.invariants import (
    Violation,
    audit_controller_log,
    audit_epoch_records,
    audit_pc_table,
    audit_residency,
    audit_run_result,
)


@dataclass(frozen=True)
class CheckConfig:
    """One validation pass: which cells to audit, at what scale."""

    workloads: Tuple[str, ...]
    designs: Tuple[str, ...] = ("PCSTALL", "CRISP")
    n_cus: int = 2
    waves_per_cu: int = 4
    cus_per_domain: int = 1
    epoch_ns: float = 1000.0
    scale: float = 0.15
    max_epochs: int = 60
    oracle_sample_freqs: Optional[int] = 4
    #: Pool width for the serial-vs-parallel sweep differential.
    sweep_workers: int = 2

    def sim_config(self) -> SimConfig:
        return small_config(
            n_cus=self.n_cus,
            waves_per_cu=self.waves_per_cu,
            epoch_ns=self.epoch_ns,
            cus_per_domain=self.cus_per_domain,
        )


def quick_check_config() -> CheckConfig:
    """CI-smoke scale: two workloads covering both suite categories."""
    return CheckConfig(workloads=("comd", "xsbench"))


def deep_check_config() -> CheckConfig:
    """The five quickstart workloads at figure scale."""
    return CheckConfig(
        workloads=QUICK_WORKLOADS, scale=0.3, max_epochs=120, waves_per_cu=8
    )


@dataclass
class CheckReport:
    """Everything one ``repro check`` pass found."""

    violations: List[Violation] = field(default_factory=list)
    differentials: List[DiffReport] = field(default_factory=list)
    #: ``workload/design`` labels whose artifacts were audited.
    cells_audited: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and all(d.ok for d in self.differentials)

    def render(self) -> str:
        lines = [
            f"invariants: {len(self.cells_audited)} cell(s) audited, "
            f"{len(self.violations)} violation(s)"
        ]
        lines += [f"  {v.render()}" for v in self.violations]
        bad = [d for d in self.differentials if not d.ok]
        lines.append(
            f"differentials: {len(self.differentials)} pair(s) compared, "
            f"{len(bad)} diverged"
        )
        for d in self.differentials:
            lines.append("  " + d.render().replace("\n", "\n  "))
        lines.append(f"result: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "cells_audited": list(self.cells_audited),
            "violations": [v.as_dict() for v in self.violations],
            "differentials": [d.as_dict() for d in self.differentials],
        }


def _audit_cell(
    cfg: CheckConfig, workload_name: str, design: str
) -> Tuple[List[Violation], str]:
    """Run one cell in-process with telemetry and audit every artifact.

    Unlike :func:`~repro.runtime.executor.run_task` this keeps the live
    simulation around, so the controller log and PC tables can be
    audited alongside the RunResult and the record stream.
    """
    from repro.dvfs.designs import make_controller
    from repro.dvfs.simulation import DvfsSimulation
    from repro.workloads import build_workload, workload

    config = cfg.sim_config()
    kernels = build_workload(workload(workload_name), scale=cfg.scale)
    ctrl = make_controller(design, config, None)
    recorder = EpochTraceRecorder(TelemetryConfig(ring_size=None))
    sim = DvfsSimulation(
        kernels,
        ctrl,
        config,
        design_name=design,
        workload_name=workload_name,
        collect_accuracy=True,
        max_epochs=cfg.max_epochs,
        oracle_sample_freqs=cfg.oracle_sample_freqs,
        telemetry=recorder,
    )
    result = sim.run()

    subject = f"{workload_name}/{design}"
    grid = config.dvfs.frequencies_ghz
    violations = list(audit_run_result(result, grid, subject))
    violations += audit_controller_log(ctrl.log, grid, subject)
    violations += _audit_noisy_residency(ctrl.log, grid, subject)
    for i, table in enumerate(getattr(ctrl.predictor, "tables", ())):
        violations += audit_pc_table(table, f"{subject} table[{i}]")
    violations += audit_epoch_records(recorder.in_memory(), subject)
    return violations, subject


def _audit_noisy_residency(log, grid, subject: str) -> List[Violation]:
    """Residency under 1-ULP frequency noise must still normalise.

    A live run's decisions are the grid floats themselves, so an
    exact-``==`` residency bucket lookup happens to work - until a
    frequency round-trips through unit conversion or the wire and comes
    back one ULP off, at which point the decision silently vanishes from
    every bucket. Re-deriving the residency from a ``nextafter``-
    perturbed copy of the real log pins the contract: snapping to the
    grid within the documented 1e-6 GHz tolerance, fractions summing
    to 1.
    """
    import math

    from repro.core.controller import ControllerLog

    noisy = ControllerLog()
    noisy.chosen_freqs = [
        [math.nextafter(f, math.inf) for f in epoch] for epoch in log.chosen_freqs
    ]
    noisy.predictions = list(log.predictions)
    return audit_residency(
        noisy.frequency_residency(grid),
        grid,
        bool(noisy.chosen_freqs),
        f"{subject} (noise-injected residency)",
    )


def run_check(
    cfg: CheckConfig,
    log: Optional[Callable[[str], None]] = None,
) -> CheckReport:
    """Run the full validation pass described by ``cfg``."""
    say = log or (lambda _msg: None)
    report = CheckReport()

    # -- invariant audits over the (workload x design) matrix ----------
    for workload_name in cfg.workloads:
        for design in cfg.designs:
            violations, subject = _audit_cell(cfg, workload_name, design)
            report.violations += violations
            report.cells_audited.append(subject)
            say(f"audited {subject}: {len(violations)} violation(s)")

    # -- differential pairs --------------------------------------------
    config = cfg.sim_config()
    tasks = [
        make_task(
            w,
            d,
            config,
            scale=cfg.scale,
            max_epochs=cfg.max_epochs,
            oracle_sample_freqs=cfg.oracle_sample_freqs,
        )
        for w in cfg.workloads
        for d in cfg.designs
    ]

    say("differential: event vs reference engine")
    report.differentials.append(engine_differential(tasks[0], trace=True))

    say(f"differential: serial vs parallel sweep ({len(tasks)} cell(s))")
    report.differentials += sweep_differential(tasks, workers=cfg.sweep_workers)

    say("differential: snapshot-fork vs clone oracle")
    from repro.workloads import build_workload, workload

    kernels = build_workload(workload(cfg.workloads[0]), scale=cfg.scale)
    report.differentials.append(
        oracle_fork_differential(
            kernels,
            config,
            subject=f"{cfg.workloads[0]}/oracle",
            n_sample_freqs=cfg.oracle_sample_freqs,
        )
    )
    return report


__all__ = [
    "CheckConfig",
    "CheckReport",
    "deep_check_config",
    "quick_check_config",
    "run_check",
]
