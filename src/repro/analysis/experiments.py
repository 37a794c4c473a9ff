"""One driver per table/figure of the paper's evaluation (Sections 3-6).

Every driver takes an :class:`ExperimentSetup` so the same code scales
from quick CI runs (few workloads, scaled-down kernels) to the full
evaluation. Drivers return plain result objects with a ``render()``
method that prints the same rows/series the paper's figure shows.

Experiment index (see DESIGN.md for the full mapping):

========  =========================================================
fig01a    ED2P improvement vs DVFS epoch duration
fig01b    prediction accuracy vs DVFS epoch duration
fig05     instructions-vs-frequency linearity (R^2)
fig06     sensitivity-over-time profiles
fig07     consecutive-epoch sensitivity change (a: per app, b: vs epoch)
fig08     per-wavefront contribution to CU sensitivity
fig10     same-PC iteration change per sharing granularity
fig11     (a) per-slot contention profile, (b) offset-bit sweep
tab1      predictor storage overhead
oracle    fork-and-pre-execute validation accuracy
fig14     prediction accuracy per design
fig15     per-workload ED2P normalised to static 1.7 GHz
fig16     frequency residency under PCSTALL
fig17     geomean EDP vs epoch duration
fig18a    energy savings under performance-degradation caps
fig18b    ED2P vs V/f-domain granularity
========  =========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.linearity import LinearityResult, linearity_study
from repro.analysis.phases import (
    SensitivityTrace,
    consecutive_epoch_change,
    offset_bits_sweep,
    profile_sensitivity,
    same_pc_iteration_change,
    wavefront_contributions,
    wavefront_slot_change,
)
from repro.analysis.report import format_series, format_table, geometric_mean
from repro.config import SimConfig, small_config
from repro.core.hardware import STORAGE_TABLE
from repro.core.objectives import EDnPObjective, Objective, PerformanceCapObjective
from repro.dvfs.oracle import OracleSampler
from repro.dvfs.simulation import RunResult
from repro.gpu.gpu import Gpu
from repro.runtime.executor import SweepExecutor, SweepTask
from repro.workloads import build_workload, workload, workload_names


@dataclass
class ExperimentSetup:
    """Knobs shared by every experiment driver."""

    config: SimConfig = field(default_factory=small_config)
    #: Workloads to evaluate; None = the full 16-app suite.
    workloads: Optional[Tuple[str, ...]] = None
    #: Work scale multiplier (outer-loop trips).
    scale: float = 0.4
    max_epochs: int = 400
    #: Oracle pre-execution frequency count (None = full grid).
    oracle_sample_freqs: Optional[int] = 4
    #: Runs the grid drivers' cells: its workers, result cache, retry
    #: policy and broker (default: serial, uncached).
    executor: SweepExecutor = field(default_factory=SweepExecutor)

    def workload_list(self) -> List[str]:
        return list(self.workloads) if self.workloads else workload_names()


#: A fast default subset covering both categories and all characters.
QUICK_WORKLOADS: Tuple[str, ...] = ("comd", "xsbench", "hacc", "dgemm", "BwdBN")


def _task(
    setup: ExperimentSetup,
    workload_name: str,
    design: str,
    objective: Optional[Objective] = None,
    config: Optional[SimConfig] = None,
    collect_accuracy: bool = False,
    scale: Optional[float] = None,
) -> SweepTask:
    return SweepTask(
        workload=workload_name,
        design=design,
        config=config or setup.config,
        scale=scale if scale is not None else setup.scale,
        max_epochs=setup.max_epochs,
        oracle_sample_freqs=setup.oracle_sample_freqs,
        collect_accuracy=collect_accuracy,
        objective=objective,
    )


def _with_epoch(config: SimConfig, epoch_ns: float) -> SimConfig:
    return replace(config, dvfs=replace(config.dvfs, epoch_ns=epoch_ns))


# ======================================================================
# Figure 5


@dataclass
class Fig05Result:
    per_workload: Dict[str, LinearityResult]

    @property
    def mean_r_squared(self) -> float:
        vals = [r.mean_r_squared for r in self.per_workload.values()]
        return sum(vals) / len(vals) if vals else 0.0

    def render(self) -> str:
        rows = [(w, r.mean_r_squared) for w, r in self.per_workload.items()]
        rows.append(("MEAN", self.mean_r_squared))
        return format_table(
            ["workload", "mean R^2"], rows,
            title="Fig 5: instructions-vs-frequency linearity (paper: R^2 ~ 0.82)",
        )


def fig05_linearity(setup: ExperimentSetup, sample_epochs=(2, 5, 9, 14, 20)) -> Fig05Result:
    out = {}
    for name in setup.workload_list():
        kernels = build_workload(workload(name), scale=setup.scale)
        out[name] = linearity_study(
            kernels, setup.config, sample_epochs=sample_epochs,
            max_epochs=max(sample_epochs) + 4,
        )
    return Fig05Result(out)


# ======================================================================
# Figures 6, 7, 8, 10, 11 share a profiling pass


def profile_workload(setup: ExperimentSetup, name: str, max_epochs: int = 40) -> SensitivityTrace:
    kernels = build_workload(workload(name), scale=setup.scale)
    return profile_sensitivity(kernels, setup.config, max_epochs=max_epochs, workload_name=name)


@dataclass
class Fig06Result:
    profiles: Dict[str, List[float]]  # workload -> CU0 sensitivity series

    def render(self) -> str:
        lines = ["Fig 6: sensitivity profiles (CU0 slope per 1us epoch)"]
        for name, series in self.profiles.items():
            head = " ".join(f"{v:7.1f}" for v in series[:12])
            lines.append(f"  {name:8s}: {head} ...")
        return "\n".join(lines)


def fig06_profiles(
    setup: ExperimentSetup, apps: Sequence[str] = ("dgemm", "hacc", "BwdBN", "xsbench"),
    max_epochs: int = 30,
) -> Fig06Result:
    profiles = {}
    for name in apps:
        trace = profile_workload(setup, name, max_epochs=max_epochs)
        profiles[name] = trace.cu_series(0)
    return Fig06Result(profiles)


@dataclass
class Fig07Result:
    per_workload: Dict[str, float]
    vs_epoch: Dict[float, float]

    @property
    def mean_change(self) -> float:
        vals = list(self.per_workload.values())
        return sum(vals) / len(vals) if vals else 0.0

    def render(self) -> str:
        a = format_table(
            ["workload", "rel change"],
            list(self.per_workload.items()) + [("MEAN", self.mean_change)],
            title="Fig 7a: consecutive-epoch sensitivity change @1us (paper mean: 0.37)",
        )
        b = format_series(
            self.vs_epoch, key_header="epoch (ns)", value_header="rel change",
            title="Fig 7b: change vs epoch duration (paper: 0.37 @1us -> 0.12 @100us)",
        )
        return a + "\n\n" + b


def fig07_variability(
    setup: ExperimentSetup,
    epoch_durations_ns: Sequence[float] = (1_000.0, 10_000.0, 50_000.0),
    trend_app: str = "comd",
    max_epochs: int = 30,
) -> Fig07Result:
    per_workload = {}
    for name in setup.workload_list():
        trace = profile_workload(setup, name, max_epochs=max_epochs)
        per_workload[name] = consecutive_epoch_change(trace, "cu")

    vs_epoch = {}
    for epoch_ns in epoch_durations_ns:
        cfg = _with_epoch(setup.config, epoch_ns)
        kernels = build_workload(workload(trend_app), scale=setup.scale * max(1.0, epoch_ns / 2000.0))
        n = max(8, int(30 * 1000.0 / epoch_ns)) if epoch_ns > 1000 else max_epochs
        trace = profile_sensitivity(kernels, cfg, max_epochs=min(n, 30), epoch_ns=epoch_ns)
        vs_epoch[epoch_ns] = consecutive_epoch_change(trace, "cu")
    return Fig07Result(per_workload, vs_epoch)


@dataclass
class Fig08Result:
    slot_series: List[List[float]]
    cu_series: List[float]

    def render(self) -> str:
        lines = ["Fig 8: wavefront contributions to CU sensitivity (BwdBN, CU0)"]
        for rank, series in enumerate(self.slot_series):
            head = " ".join(f"{v:6.1f}" for v in series[:10])
            lines.append(f"  slot {rank}: {head} ...")
        head = " ".join(f"{v:6.1f}" for v in self.cu_series[:10])
        lines.append(f"  CU    : {head} ...")
        return "\n".join(lines)


def fig08_wavefront_contributions(
    setup: ExperimentSetup, app: str = "BwdBN", max_epochs: int = 25, max_slots: int = 8
) -> Fig08Result:
    trace = profile_workload(setup, app, max_epochs=max_epochs)
    return Fig08Result(
        wavefront_contributions(trace, cu_id=0, max_slots=max_slots),
        trace.cu_series(0),
    )


@dataclass
class Fig10Result:
    per_granularity: Dict[str, float]
    consecutive_wf: float

    def render(self) -> str:
        rows = list(self.per_granularity.items())
        rows.append(("consecutive (ref)", self.consecutive_wf))
        return format_table(
            ["granularity", "rel change"], rows,
            title="Fig 10: same-PC iteration change (paper: ~0.10 vs 0.37 consecutive)",
        )


def fig10_pc_repeatability(
    setup: ExperimentSetup, apps: Optional[Sequence[str]] = None, max_epochs: int = 35
) -> Fig10Result:
    apps = list(apps) if apps else list(QUICK_WORKLOADS)
    sums = {"wf": [], "cu": [], "gpu": []}
    consecutive = []
    for name in apps:
        trace = profile_workload(setup, name, max_epochs=max_epochs)
        for g in sums:
            sums[g].append(same_pc_iteration_change(trace, g))
        consecutive.append(consecutive_epoch_change(trace, "wf"))
    per_granularity = {g: sum(v) / len(v) for g, v in sums.items()}
    return Fig10Result(per_granularity, sum(consecutive) / len(consecutive))


@dataclass
class Fig11Result:
    slot_profile: List[float]
    offset_sweep: Dict[int, float]

    def render(self) -> str:
        a = format_series(
            {i: v for i, v in enumerate(self.slot_profile)},
            key_header="wavefront slot", value_header="rel change",
            title="Fig 11a: same-PC change per wavefront slot (quickS)",
        )
        b = format_series(
            self.offset_sweep, key_header="offset bits", value_header="rel change",
            title="Fig 11b: PC-index offset-bit sweep (paper: rises past 4 bits)",
        )
        return a + "\n\n" + b


def fig11_contention_and_offsets(
    setup: ExperimentSetup, app: str = "quickS", max_epochs: int = 35,
    offsets: Sequence[int] = (0, 2, 4, 6, 8, 10),
) -> Fig11Result:
    trace = profile_workload(setup, app, max_epochs=max_epochs)
    return Fig11Result(
        wavefront_slot_change(trace, max_slots=setup.config.gpu.waves_per_cu),
        offset_bits_sweep(trace, offsets=offsets),
    )


# ======================================================================
# TABLE I


@dataclass
class Tab1Result:
    bytes_per_design: Dict[str, int]

    def render(self) -> str:
        return format_table(
            ["design", "bytes/instance"],
            sorted(self.bytes_per_design.items(), key=lambda kv: -kv[1]),
            title="TABLE I: predictor storage overhead (paper: PCSTALL 328 B)",
        )


def tab1_storage() -> Tab1Result:
    return Tab1Result({name: b.total_bytes for name, b in STORAGE_TABLE.items()})


# ======================================================================
# Oracle validation (Section 5.1)


@dataclass
class OracleValidationResult:
    accuracy: float

    def render(self) -> str:
        return (
            "Oracle fork-and-pre-execute validation (paper: 97.6%): "
            f"{self.accuracy:.1%}"
        )


def oracle_validation(
    setup: ExperimentSetup, app: str = "comd", probes: int = 5
) -> OracleValidationResult:
    cfg = setup.config
    kernels = build_workload(workload(app), scale=setup.scale)
    gpu = Gpu(cfg.gpu, cfg.dvfs.reference_freq_ghz)
    pending = list(kernels)
    gpu.load_kernel(pending.pop(0))
    sampler = OracleSampler(cfg)
    accs = []
    chosen = [cfg.dvfs.reference_freq_ghz] * cfg.gpu.n_domains
    for i in range(probes * 4):
        if gpu.done:
            if not pending:
                break
            gpu.load_kernel(pending.pop(0))
        if i % 4 == 2:  # probe a few epochs spread over the run
            acc = sampler.validation_accuracy(gpu, chosen)
            if acc is not None:  # nothing committed: no evidence either way
                accs.append(acc)
        gpu.run_epoch(cfg.dvfs.epoch_ns)
    return OracleValidationResult(sum(accs) / len(accs) if accs else 0.0)


# ======================================================================
# Figures 14 / 15 / 16: the design-comparison core


EVAL_DESIGNS = ("STALL", "LEAD", "CRIT", "CRISP", "ACCREAC", "PCSTALL", "ACCPC", "ORACLE")


@dataclass
class DesignMatrixResult:
    """Per-workload, per-design run results (shared by figs 14-16)."""

    runs: Dict[str, Dict[str, RunResult]]  # workload -> design -> run
    baseline: Dict[str, RunResult]  # workload -> static reference run

    def accuracy(self, design: str) -> float:
        vals = [
            r[design].prediction_accuracy
            for r in self.runs.values()
            if r[design].prediction_accuracy is not None
        ]
        return sum(vals) / len(vals) if vals else 0.0

    def normalized_ed2p(self, workload_name: str, design: str) -> float:
        return self.runs[workload_name][design].ed2p / self.baseline[workload_name].ed2p

    def geomean_ed2p(self, design: str) -> float:
        return geometric_mean(
            [self.normalized_ed2p(w, design) for w in self.runs]
        )

    def render_fig14(self) -> str:
        rows = [(d, self.accuracy(d)) for d in EVAL_DESIGNS if d in next(iter(self.runs.values()))]
        return format_table(
            ["design", "accuracy"], rows,
            title=(
                "Fig 14: prediction accuracy @1us (paper: CRISP~0.60, "
                "ACCREAC~0.63, PCSTALL~0.81, ACCPC~0.90)"
            ),
        )

    def render_fig15(self) -> str:
        designs = [d for d in EVAL_DESIGNS if d in next(iter(self.runs.values()))]
        headers = ["workload"] + designs
        rows = []
        for w in self.runs:
            rows.append([w] + [self.normalized_ed2p(w, d) for d in designs])
        rows.append(["GEOMEAN"] + [self.geomean_ed2p(d) for d in designs])
        return format_table(
            headers, rows,
            title="Fig 15: ED2P normalised to static 1.7 GHz @1us (lower is better)",
        )

    def render_fig16(self) -> str:
        grid = sorted(next(iter(self.runs.values()))["PCSTALL"].frequency_residency)
        headers = ["workload"] + [f"{f:.1f}" for f in grid]
        rows = []
        for w, designs in self.runs.items():
            res = designs["PCSTALL"].frequency_residency
            rows.append([w] + [res.get(f, 0.0) for f in grid])
        return format_table(
            headers, rows, precision=2,
            title="Fig 16: frequency residency under PCSTALL/ED2P @1us",
        )


def design_matrix(
    setup: ExperimentSetup,
    designs: Sequence[str] = EVAL_DESIGNS,
    objective: Optional[Objective] = None,
) -> DesignMatrixResult:
    """Run every design on every workload (the fig 14/15/16 data).

    All (workload x design) cells plus the static baselines go to
    ``setup.executor`` as one batch; results are reassembled in a
    deterministic order identical to a serial run.
    """
    wls = setup.workload_list()
    obj = objective or EDnPObjective(2)
    tasks = [_task(setup, name, "STATIC@1.7") for name in wls]
    cells = [
        _task(setup, name, design, objective=obj, collect_accuracy=True)
        for name in wls
        for design in designs
    ]
    results = setup.executor.run(tasks + cells)

    baseline = dict(zip(wls, results[: len(wls)]))
    runs: Dict[str, Dict[str, RunResult]] = {name: {} for name in wls}
    for task, result in zip(cells, results[len(wls):]):
        runs[task.workload][task.design] = result
    return DesignMatrixResult(runs, baseline)


# ======================================================================
# Figures 1a / 17: trends vs epoch duration


@dataclass
class EpochTrendResult:
    """Normalised geomean metric per design per epoch duration."""

    metric_name: str
    values: Dict[float, Dict[str, float]]  # epoch_ns -> design -> value
    accuracies: Dict[float, Dict[str, float]]

    def render(self) -> str:
        durations = sorted(self.values)
        designs = list(next(iter(self.values.values())))
        headers = ["design"] + [f"{d/1000:.0f}us" for d in durations]
        rows = [[des] + [self.values[d][des] for d in durations] for des in designs]
        a = format_table(
            headers, rows,
            title=f"Fig 1a/17: geomean {self.metric_name} vs epoch duration "
            "(normalised to static 1.7 GHz)",
        )
        rows_acc = [
            [des] + [self.accuracies[d].get(des, float("nan")) for d in durations]
            for des in designs if any(des in self.accuracies[d] for d in durations)
        ]
        b = format_table(
            headers, rows_acc,
            title="Fig 1b: prediction accuracy vs epoch duration",
        )
        return a + "\n\n" + b


def epoch_duration_trend(
    setup: ExperimentSetup,
    designs: Sequence[str] = ("CRISP", "ACCREAC", "PCSTALL", "ORACLE"),
    epoch_durations_ns: Sequence[float] = (1_000.0, 10_000.0, 50_000.0),
    n: int = 2,
) -> EpochTrendResult:
    """Shared driver for Figures 1(a), 1(b) and 17.

    ``n`` selects the metric: 2 = ED2P (fig 1a), 1 = EDP (fig 17).
    The whole (duration x workload x design) grid is submitted to the
    executor as one batch so it parallelises across every dimension.
    """
    wls = setup.workload_list()
    base_tasks: List[SweepTask] = []
    cell_tasks: List[SweepTask] = []
    for epoch_ns in epoch_durations_ns:
        cfg = _with_epoch(setup.config, epoch_ns)
        # Longer epochs need longer runs to see several decisions.
        scale = setup.scale * max(1.0, epoch_ns / 4000.0)
        for wname in wls:
            base_tasks.append(
                _task(setup, wname, "STATIC@1.7", config=cfg, scale=scale)
            )
            for d in designs:
                cell_tasks.append(
                    _task(
                        setup, wname, d, objective=EDnPObjective(n), config=cfg,
                        collect_accuracy=True, scale=scale,
                    )
                )
    results = setup.executor.run(base_tasks + cell_tasks)
    base_results = results[: len(base_tasks)]
    cell_results = iter(results[len(base_tasks):])
    base_by_key = {
        (t.config.dvfs.epoch_ns, t.workload): r
        for t, r in zip(base_tasks, base_results)
    }

    values: Dict[float, Dict[str, float]] = {}
    accuracies: Dict[float, Dict[str, float]] = {}
    for epoch_ns in epoch_durations_ns:
        per_design: Dict[str, List[float]] = {d: [] for d in designs}
        per_acc: Dict[str, List[float]] = {d: [] for d in designs}
        for wname in wls:
            base = base_by_key[(epoch_ns, wname)]
            for d in designs:
                r = next(cell_results)
                per_design[d].append(r.ednp(n) / base.ednp(n))
                if r.prediction_accuracy is not None:
                    per_acc[d].append(r.prediction_accuracy)
        values[epoch_ns] = {d: geometric_mean(v) for d, v in per_design.items()}
        accuracies[epoch_ns] = {
            d: sum(v) / len(v) for d, v in per_acc.items() if v
        }
    name = "ED2P" if n == 2 else ("EDP" if n == 1 else f"ED{n}P")
    return EpochTrendResult(name, values, accuracies)


# ======================================================================
# Figure 18a: energy savings under performance caps


@dataclass
class Fig18aResult:
    savings: Dict[float, Dict[str, float]]  # cap -> design -> fraction saved
    degradation: Dict[float, Dict[str, float]]  # cap -> design -> slowdown

    def render(self) -> str:
        caps = sorted(self.savings)
        designs = list(next(iter(self.savings.values())))
        headers = ["design"] + [f"save@{c:.0%}" for c in caps] + [f"slow@{c:.0%}" for c in caps]
        rows = []
        for d in designs:
            rows.append(
                [d]
                + [self.savings[c][d] for c in caps]
                + [self.degradation[c][d] for c in caps]
            )
        return format_table(
            headers, rows,
            title=(
                "Fig 18a: energy savings under perf caps vs static 2.2 GHz "
                "(paper: PCSTALL 9.6%@5%, 19.9%@10%; CRISP 2.1%/4.7%)"
            ),
        )


def fig18a_energy_savings(
    setup: ExperimentSetup,
    designs: Sequence[str] = ("CRISP", "PCSTALL"),
    caps: Sequence[float] = (0.05, 0.10),
) -> Fig18aResult:
    wls = setup.workload_list()
    base_tasks = [_task(setup, w, f"STATIC@{setup.config.dvfs.f_max}") for w in wls]
    cells = [
        _task(setup, w, d, objective=PerformanceCapObjective(cap))
        for cap in caps
        for d in designs
        for w in wls
    ]
    results = setup.executor.run(base_tasks + cells)
    base = dict(zip(wls, results[: len(wls)]))
    cell_results = iter(results[len(wls):])

    savings: Dict[float, Dict[str, float]] = {c: {} for c in caps}
    degradation: Dict[float, Dict[str, float]] = {c: {} for c in caps}
    for cap in caps:
        for d in designs:
            e_ratios, d_ratios = [], []
            for w in wls:
                r = next(cell_results)
                e_ratios.append(r.energy.total / base[w].energy.total)
                d_ratios.append(r.delay_ns / base[w].delay_ns)
            savings[cap][d] = 1.0 - geometric_mean(e_ratios)
            degradation[cap][d] = geometric_mean(d_ratios) - 1.0
    return Fig18aResult(savings, degradation)


# ======================================================================
# Figure 18b: V/f-domain granularity scaling


@dataclass
class Fig18bResult:
    ed2p: Dict[int, Dict[str, float]]  # cus_per_domain -> design -> norm ED2P

    def render(self) -> str:
        grans = sorted(self.ed2p)
        designs = list(next(iter(self.ed2p.values())))
        headers = ["design"] + [f"{g}CU" for g in grans]
        rows = [[d] + [self.ed2p[g][d] for g in grans] for d in designs]
        return format_table(
            headers, rows,
            title=(
                "Fig 18b: geomean ED2P vs V/f-domain granularity "
                "(opportunity shrinks as domains coarsen)"
            ),
        )


def fig18b_granularity(
    setup: ExperimentSetup,
    designs: Sequence[str] = ("CRISP", "PCSTALL", "ORACLE"),
    granularities: Optional[Sequence[int]] = None,
) -> Fig18bResult:
    n_cus = setup.config.gpu.n_cus
    if granularities is None:
        granularities = [g for g in (1, 2, 4, 8, 16, 32) if g <= n_cus]
    wls = setup.workload_list()
    configs = {
        g: replace(setup.config, gpu=replace(setup.config.gpu, cus_per_domain=g))
        for g in granularities
    }
    tasks = []
    for g in granularities:
        for w in wls:
            tasks.append(_task(setup, w, "STATIC@1.7", config=configs[g]))
            tasks.extend(_task(setup, w, d, config=configs[g]) for d in designs)
    results = iter(setup.executor.run(tasks))

    out: Dict[int, Dict[str, float]] = {}
    for g in granularities:
        per_design: Dict[str, List[float]] = {d: [] for d in designs}
        for w in wls:
            base = next(results)
            for d in designs:
                per_design[d].append(next(results).ed2p / base.ed2p)
        out[g] = {d: geometric_mean(v) for d, v in per_design.items()}
    return Fig18bResult(out)


__all__ = [
    "ExperimentSetup",
    "QUICK_WORKLOADS",
    "EVAL_DESIGNS",
    "fig05_linearity",
    "fig06_profiles",
    "fig07_variability",
    "fig08_wavefront_contributions",
    "fig10_pc_repeatability",
    "fig11_contention_and_offsets",
    "tab1_storage",
    "oracle_validation",
    "design_matrix",
    "DesignMatrixResult",
    "epoch_duration_trend",
    "fig18a_energy_savings",
    "fig18b_granularity",
    "profile_workload",
]
