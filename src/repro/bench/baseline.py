"""Versioned machine-readable benchmark reports (``BENCH_*.json``).

A bench report is the perf counterpart of the telemetry trace: it embeds
the same self-describing ``meta`` block (:func:`repro.telemetry.build_meta`)
plus its own ``bench_schema_version``, and every per-benchmark result
carries the canonical ``config_hash`` of the platform it ran on, so a
number archived today is attributable long after defaults move.

Report layout (one JSON object)::

    {
      "meta": {schema_version, repro_version, python, platform, ...},
      "bench_schema_version": 1,
      "suite": "quick" | "full",
      "engine": "event" | "reference",
      "results": {
        "<bench name>": {
          "name", "wall_s", "epochs", "committed", "ns_per_epoch",
          "instr_per_sec",          # null where not meaningful
          "batched_issue_ratio",    # 0.0 on the reference engine
          "hotpath": {...},         # HotPathCounters deltas
          "extra": {...},           # bench-specific throughputs
          "params": {...},          # workload sizing, for traceability
          "config_hash": "..."      # platform the bench ran on
        }, ...
      }
    }

:func:`compare_reports` implements the CI gate: relative to a committed
baseline report, ``instr_per_sec`` and ``batched_issue_ratio`` may not
drop by more than ``gate`` (default 20%). Wall time itself is never
gated - shared runners are too noisy - only the throughput and
work-shape metrics derived from deterministic instruction counts.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

PathLike = Union[str, pathlib.Path]

#: Bump when a result field is added/removed or changes meaning.
BENCH_SCHEMA_VERSION = 1

#: Fields every per-benchmark result object must carry.
REQUIRED_RESULT_FIELDS = (
    "name",
    "wall_s",
    "epochs",
    "committed",
    "ns_per_epoch",
    "instr_per_sec",
    "batched_issue_ratio",
    "hotpath",
    "extra",
)

#: Metrics the baseline gate watches (higher is better for all of them).
GATED_METRICS = ("instr_per_sec", "batched_issue_ratio")


def validate_bench_report(report: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a bench report; returns it as a dict, raises ``ValueError``."""
    if not isinstance(report, Mapping):
        raise ValueError(f"bench report must be a mapping, got {type(report).__name__}")
    version = report.get("bench_schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench schema version {version!r} "
            f"(this build reads version {BENCH_SCHEMA_VERSION})"
        )
    # The meta block stamps the producing build. A bench report holds no
    # trace records, so ``bench_schema_version`` alone versions its
    # format, and a later trace schema does not invalidate a baseline.
    meta = report.get("meta")
    if not isinstance(meta, Mapping) or not meta.get("repro_version"):
        raise ValueError("bench report meta lacks repro_version")
    if report.get("suite") not in ("quick", "full"):
        raise ValueError(f"bad suite {report.get('suite')!r}")
    if report.get("engine") not in ("event", "reference"):
        raise ValueError(f"bad engine {report.get('engine')!r}")
    results = report.get("results")
    if not isinstance(results, Mapping) or not results:
        raise ValueError("bench report has no results")
    for name, res in results.items():
        if not isinstance(res, Mapping):
            raise ValueError(f"result {name!r} is not a mapping")
        missing = [f for f in REQUIRED_RESULT_FIELDS if f not in res]
        if missing:
            raise ValueError(f"result {name!r} missing fields: {missing}")
        if res["name"] != name:
            raise ValueError(f"result {name!r} carries mismatched name {res['name']!r}")
        for metric in ("wall_s", "ns_per_epoch"):
            v = res[metric]
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                raise ValueError(f"result {name!r}: bad {metric} {v!r}")
        ips = res["instr_per_sec"]
        if ips is not None and (not isinstance(ips, (int, float)) or ips < 0):
            raise ValueError(f"result {name!r}: bad instr_per_sec {ips!r}")
    return dict(report)


def save_bench_json(report: Mapping[str, Any], path: PathLike) -> pathlib.Path:
    """Validate and write a bench report (stable key order)."""
    validate_bench_report(report)
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def load_bench_json(path: PathLike) -> Dict[str, Any]:
    """Read and validate a bench report file."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_bench_report(json.load(fh))


@dataclass(frozen=True)
class MetricDelta:
    """One gated metric of one benchmark, current vs baseline."""

    bench: str
    metric: str
    baseline: float
    current: float
    regressed: bool

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")


@dataclass
class BenchComparison:
    """Outcome of :func:`compare_reports`."""

    gate: float
    deltas: List[MetricDelta] = field(default_factory=list)
    #: Benchmarks present in only one of the two reports (not gated).
    missing_in_current: List[str] = field(default_factory=list)
    missing_in_baseline: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.regressed for d in self.deltas)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    def render(self) -> str:
        from repro.analysis.report import format_table

        rows = []
        for d in self.deltas:
            rows.append([
                d.bench, d.metric, f"{d.baseline:,.1f}", f"{d.current:,.1f}",
                f"{d.ratio:.2f}x", "REGRESSED" if d.regressed else "ok",
            ])
        text = format_table(
            ["bench", "metric", "baseline", "current", "ratio", "gate"],
            rows,
            title=f"baseline comparison (fail below {1.0 - self.gate:.2f}x)",
        )
        notes = []
        if self.missing_in_current:
            notes.append(f"not run here: {', '.join(self.missing_in_current)}")
        if self.missing_in_baseline:
            notes.append(f"new (no baseline): {', '.join(self.missing_in_baseline)}")
        if notes:
            text += "\n" + "\n".join(notes)
        return text


def compare_reports(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    gate: float = 0.20,
) -> BenchComparison:
    """Gate ``current`` against ``baseline`` on the throughput metrics.

    A benchmark regresses when a gated metric falls more than ``gate``
    (fractional) below the baseline value. Metrics that are null/zero in
    the baseline are reported but never gated (nothing to compare to);
    benchmarks present in only one report are listed, not failed, so a
    renamed or added benchmark does not brick CI.
    """
    if not 0.0 < gate < 1.0:
        raise ValueError("gate must be a fraction in (0, 1)")
    cur = validate_bench_report(current)["results"]
    base = validate_bench_report(baseline)["results"]
    cmp = BenchComparison(gate=gate)
    cmp.missing_in_current = sorted(set(base) - set(cur))
    cmp.missing_in_baseline = sorted(set(cur) - set(base))
    for name in sorted(set(cur) & set(base)):
        for metric in GATED_METRICS:
            b, c = base[name].get(metric), cur[name].get(metric)
            if b is None or c is None or b <= 0:
                continue
            cmp.deltas.append(MetricDelta(
                bench=name,
                metric=metric,
                baseline=float(b),
                current=float(c),
                regressed=float(c) < float(b) * (1.0 - gate),
            ))
    return cmp


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "GATED_METRICS",
    "REQUIRED_RESULT_FIELDS",
    "BenchComparison",
    "MetricDelta",
    "compare_reports",
    "load_bench_json",
    "save_bench_json",
    "validate_bench_report",
]
