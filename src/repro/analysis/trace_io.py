"""Export of simulation traces (CSV and JSON).

Lets users post-process runs in pandas/matplotlib without re-simulating:

* :func:`run_result_to_dict` / :func:`save_run_json` - one DVFS run's
  summary (energy breakdown, residency, accuracy, ...).
* :func:`trace_to_rows` / :func:`save_trace_csv` - a
  :class:`~repro.analysis.phases.SensitivityTrace` as flat per-epoch
  (and per-wavefront) rows.

Both files read back with the standard library's ``json`` and ``csv``.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.phases import SensitivityTrace
from repro.dvfs.simulation import RunResult
from repro.telemetry.schema import build_meta

PathLike = Union[str, pathlib.Path]


def run_result_to_dict(
    result: RunResult, config: Optional[Any] = None, engine: Optional[str] = None
) -> Dict:
    """JSON-serialisable summary of one DVFS run.

    The ``meta`` block stamps the artifact with the package version,
    trace-schema version and (when ``config`` is given) the platform's
    content hash, so a loaded file can be checked against the code that
    reads it (see :func:`~repro.telemetry.schema.check_meta`).
    """
    return {
        "meta": build_meta(config=config, **({"engine": engine} if engine else {})),
        "design": result.design,
        "workload": result.workload,
        "epochs": result.epochs,
        "completed": result.completed,
        "delay_ns": result.delay_ns,
        "energy": {
            "total": result.energy.total,
            "cu": result.energy.cu_dynamic_and_leakage,
            "memory": result.energy.memory,
            "transitions": result.energy.transitions,
        },
        "edp": result.edp,
        "ed2p": result.ed2p,
        "prediction_accuracy": result.prediction_accuracy,
        "pc_hit_ratio": result.pc_hit_ratio,
        "total_committed": result.total_committed,
        "total_transitions": result.total_transitions,
        "frequency_residency": {
            f"{f:.2f}": share for f, share in result.frequency_residency.items()
        },
        "hotpath": result.hotpath,
    }


def save_run_json(
    result: RunResult,
    path: PathLike,
    config: Optional[Any] = None,
    engine: Optional[str] = None,
) -> None:
    pathlib.Path(path).write_text(
        json.dumps(run_result_to_dict(result, config=config, engine=engine), indent=2)
    )


# ----------------------------------------------------------------------

EPOCH_FIELDS = ("epoch", "level", "unit", "slope", "commits")


def trace_to_rows(trace: SensitivityTrace) -> List[Tuple]:
    """Flatten a sensitivity trace to (epoch, level, unit, slope, commits)."""
    rows: List[Tuple] = []
    for e in trace.epochs:
        for cu, slope in enumerate(e.cu_slopes):
            commits = e.cu_commits[cu] if cu < len(e.cu_commits) else ""
            rows.append((e.index, "cu", cu, slope, commits))
        for d, slope in enumerate(e.domain_slopes):
            rows.append((e.index, "domain", d, slope, ""))
        for w in e.waves:
            rows.append((e.index, "wf", w.wf_id, w.slope, w.committed))
    return rows


def save_trace_csv(trace: SensitivityTrace, path: PathLike) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EPOCH_FIELDS)
        writer.writerows(trace_to_rows(trace))


__all__ = [
    "run_result_to_dict",
    "save_run_json",
    "trace_to_rows",
    "save_trace_csv",
]
