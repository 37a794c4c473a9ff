"""Differential cross-checkers: the repo's equivalence claims, audited.

Three of the repo's core guarantees are *bit-exactness* claims between
two implementations of the same computation:

* **engine** - the event-driven CU timing engine must reproduce the
  reference per-cycle loop's :class:`~repro.dvfs.simulation.RunResult`
  exactly (PR 2's golden-baseline contract);
* **sweep parallelism** - fanning sweep cells across worker processes
  must never change a number vs the serial path (PR 1/4);
* **oracle fork** - the oracle's snapshot/restore fork must produce
  the same sample points as re-simulating the run up to the epoch
  boundary from scratch, once per sample.

Each checker here runs both sides from the same inputs and diffs the
outcomes field by field, producing a :class:`DiffReport` whose
mismatches name the first quantity that diverged. With telemetry
enabled (``trace=True``, engine differential only) the checker also
attaches per-epoch traces and reports the **first diverging epoch**, so
a regression points at a specific decision instead of a final number.

These are config-driven (any workload/design/platform) and deliberately
bypass the result cache: a differential that compares a cache entry
against itself proves nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.objectives import Objective
from repro.dvfs.oracle import OracleSampler
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel
from repro.runtime.executor import SweepExecutor, SweepTask, run_task
from repro.telemetry.recorder import EpochTraceRecorder, TelemetryConfig

#: RunResult fields excluded from bit-exact comparison: hot-path work
#: counters measure *how* the engines computed, not *what* (the event
#: engine exists to make them differ), and wall-clock profiling is
#: inherently non-deterministic.
DEFAULT_IGNORE_FIELDS = ("hotpath",)

@dataclass(frozen=True)
class FieldMismatch:
    """One diverging field between the two sides of a differential."""

    field: str
    a: object
    b: object

    def render(self) -> str:
        return f"{self.field}: {self.a!r} != {self.b!r}"


@dataclass
class DiffReport:
    """Outcome of one differential pair."""

    #: Which checker ran: ``engine`` / ``sweep-parallelism`` / ``oracle-fork``.
    name: str
    #: What was compared, e.g. ``comd/PCSTALL``.
    subject: str
    #: Labels of the two implementations, e.g. ``("event", "reference")``.
    sides: Tuple[str, str]
    mismatches: List[FieldMismatch] = field(default_factory=list)
    #: Epoch index where the telemetry traces first diverge (only when
    #: the checker ran with tracing and the sides disagree).
    first_diverging_epoch: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        head = f"[{self.name}] {self.subject} ({self.sides[0]} vs {self.sides[1]})"
        if self.ok:
            return f"{head}: identical"
        lines = [f"{head}: {len(self.mismatches)} mismatch(es)"]
        lines += [f"  {m.render()}" for m in self.mismatches]
        if self.first_diverging_epoch is not None:
            lines.append(f"  first diverging epoch: {self.first_diverging_epoch}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "subject": self.subject,
            "sides": list(self.sides),
            "ok": self.ok,
            "first_diverging_epoch": self.first_diverging_epoch,
            "mismatches": [
                {"field": m.field, "a": repr(m.a), "b": repr(m.b)}
                for m in self.mismatches
            ],
        }


# ----------------------------------------------------------------------
# RunResult diffing


def diff_run_results(
    a, b, ignore: Sequence[str] = DEFAULT_IGNORE_FIELDS
) -> List[FieldMismatch]:
    """Field-by-field bit-exact diff of two RunResults.

    Floats are compared with ``==`` on purpose: the claims under test
    are bit-exactness claims, and a tolerance would hide exactly the
    drift the differential exists to catch.
    """
    out: List[FieldMismatch] = []
    for f in dataclasses.fields(type(a)):
        if f.name in ignore:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name == "energy":
            for comp in dataclasses.fields(type(va)):
                ca, cb = getattr(va, comp.name), getattr(vb, comp.name)
                if ca != cb:
                    out.append(FieldMismatch(f"energy.{comp.name}", ca, cb))
            continue
        if va != vb:
            out.append(FieldMismatch(f.name, va, vb))
    return out


def first_divergence(
    records_a: Sequence[Mapping[str, object]],
    records_b: Sequence[Mapping[str, object]],
) -> Optional[int]:
    """Epoch index where two telemetry record streams first disagree.

    Compares the ``epoch``/``domain`` records pairwise in stream order.
    Returns None when the streams agree (a divergence elsewhere - e.g.
    only in the summary - has no epoch).
    """
    payload_a = [r for r in records_a if r.get("type") in ("epoch", "domain")]
    payload_b = [r for r in records_b if r.get("type") in ("epoch", "domain")]
    for ra, rb in zip(payload_a, payload_b):
        if ra != rb:
            epoch = ra.get("epoch", rb.get("epoch"))
            return int(epoch) if isinstance(epoch, int) else None
    if len(payload_a) != len(payload_b):
        tail = min(len(payload_a), len(payload_b))
        rest = payload_a[tail:] or payload_b[tail:]
        epoch = rest[0].get("epoch") if rest else None
        return int(epoch) if isinstance(epoch, int) else None
    return None


# ----------------------------------------------------------------------
# Checkers


def _with_engine(task: SweepTask, engine: str) -> SweepTask:
    cfg = task.config
    if cfg.gpu.engine != engine:
        cfg = replace(cfg, gpu=replace(cfg.gpu, engine=engine))
    return replace(task, config=cfg)


def _recorder() -> EpochTraceRecorder:
    return EpochTraceRecorder(TelemetryConfig(ring_size=None))


def engine_differential(task: SweepTask, trace: bool = False) -> DiffReport:
    """Run one cell under the event and reference engines and diff.

    With ``trace=True`` both runs carry an epoch recorder and a
    mismatch is localised to its first diverging epoch.
    """
    sides = ("event", "reference")
    rec_a = _recorder() if trace else None
    rec_b = _recorder() if trace else None
    result_a = run_task(_with_engine(task, "event"), recorder=rec_a)
    result_b = run_task(_with_engine(task, "reference"), recorder=rec_b)
    report = DiffReport(
        name="engine",
        subject=task.label,
        sides=sides,
        mismatches=diff_run_results(result_a, result_b),
    )
    if not report.ok and rec_a is not None and rec_b is not None:
        report.first_diverging_epoch = first_divergence(
            list(rec_a.records), list(rec_b.records)
        )
    return report


def sweep_differential(
    tasks: Sequence[SweepTask], workers: int = 2
) -> List[DiffReport]:
    """Serial vs forked-worker execution of the same task grid.

    Both executors run uncached (a cache would compare an entry against
    itself) and without retries-affecting faults; every cell must match
    bit for bit regardless of how the workers interleaved it.
    """
    serial = SweepExecutor(max_workers=1).run(tasks)
    parallel = SweepExecutor(max_workers=workers).run(tasks)
    reports = []
    for task, a, b in zip(tasks, serial, parallel):
        reports.append(
            DiffReport(
                name="sweep-parallelism",
                subject=task.label,
                sides=("serial", f"parallel[{workers}]"),
                mismatches=diff_run_results(a, b),
            )
        )
    return reports


def _warmed_up_gpu(
    kernels: Sequence[Kernel], config: SimConfig, warmup_epochs: int
) -> Gpu:
    """A fresh GPU run ``warmup_epochs`` epochs into ``kernels``."""
    gpu = Gpu(config.gpu, initial_freq_ghz=config.dvfs.reference_freq_ghz)
    pending = list(kernels)
    gpu.load_kernel(pending.pop(0))
    for _ in range(warmup_epochs):
        if gpu.done:
            if not pending:
                break
            gpu.load_kernel(pending.pop(0))
        gpu.run_epoch(config.dvfs.epoch_ns)
    return gpu


def oracle_fork_differential(
    kernels: Sequence[Kernel],
    config: SimConfig,
    subject: str = "",
    n_sample_freqs: Optional[int] = 4,
    warmup_epochs: int = 3,
) -> DiffReport:
    """Snapshot/restore oracle forking vs re-simulation from scratch.

    Warms a GPU up for a few epochs, then pre-executes the next epoch's
    sample plan through :meth:`OracleSampler.sample` (one snapshot,
    restored into the scratch GPU per sample). The golden side shares
    no copy code with it: for every sample it re-simulates the warm-up
    on a fresh GPU and runs the epoch there. The per-domain sample
    points must be identical.
    """
    sampler = OracleSampler(config, n_sample_freqs=n_sample_freqs)
    epoch_ns = config.dvfs.epoch_ns
    gpu = _warmed_up_gpu(kernels, config, warmup_epochs)
    fast = sampler.sample(gpu, epoch_ns)

    mismatches: List[FieldMismatch] = []
    for s, freqs in enumerate(sampler.sample_plan(len(gpu.domains))):
        replay = _warmed_up_gpu(kernels, config, warmup_epochs)
        replay.set_domain_frequencies(freqs, transition_latency_ns=0.0)
        commits = replay.committed_per_domain(replay.run_epoch(epoch_ns))
        for d, got in enumerate(commits):
            expected = fast.commits_at(d, freqs[d])
            if expected != got:
                mismatches.append(
                    FieldMismatch(
                        f"sample[{s}].domain[{d}]@{freqs[d]:.2f}GHz", expected, got
                    )
                )
    return DiffReport(
        name="oracle-fork",
        subject=subject or "oracle",
        sides=("snapshot-fork", "replay"),
        mismatches=mismatches,
    )


def make_task(
    workload: str,
    design: str,
    config: SimConfig,
    scale: float = 0.3,
    max_epochs: int = 120,
    oracle_sample_freqs: Optional[int] = 4,
    collect_accuracy: bool = True,
    objective: Optional[Objective] = None,
) -> SweepTask:
    """Convenience constructor for differential sweep cells."""
    return SweepTask(
        workload=workload,
        design=design,
        config=config,
        scale=scale,
        max_epochs=max_epochs,
        oracle_sample_freqs=oracle_sample_freqs,
        collect_accuracy=collect_accuracy,
        objective=objective,
    )


__all__ = [
    "DEFAULT_IGNORE_FIELDS",
    "DiffReport",
    "FieldMismatch",
    "diff_run_results",
    "engine_differential",
    "first_divergence",
    "make_task",
    "oracle_fork_differential",
    "sweep_differential",
]
