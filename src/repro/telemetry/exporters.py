"""Trace exporters: Chrome-trace/Perfetto JSON from epoch records.

The exported file loads directly in https://ui.perfetto.dev (or
``chrome://tracing``). The mapping:

* each V/f **domain** is a named thread (``tid = domain + 1``),
* each recorded **epoch** is a complete slice (``ph: "X"``) on its
  domain's track, named after the chosen frequency and carrying the
  prediction/actual/error detail in ``args``,
* per-domain **frequency residency** and the GPU-wide **epoch energy**
  are counter tracks (``ph: "C"``) - the staircase the paper's Figure 16
  aggregates,
* **mispredictions** (chosen != oracle-best frequency) are thread-scoped
  instant events (``ph: "i"``), so error clusters are visible at a
  glance.

Timestamps are simulated nanoseconds divided by 1000 (the trace format
counts microseconds), so one 1 µs epoch renders as one 1-unit slice.

When the record stream also carries **span** records (the
``repro.obs.trace.Tracer`` output, written into the run's stream as
each span finishes by ``repro trace --trace``), they render as a second
process ("repro spans"): each span is a complete slice on its one
"spans" track. Span timestamps are *wall*-clock nanoseconds re-anchored
so the earliest span starts at ts 0, putting the wall timeline on the
same scale as the simulated one. Drift **alert** records carry no clock
of their own and render as process-scoped instants at the end of the
last span seen before them in the stream. The stream's header, ``run``
or ``trace``, becomes the export's ``otherData`` provenance.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.telemetry.schema import trace_meta

PathLike = Union[str, pathlib.Path]

_PID = 0
#: Span records render as their own process so the wall-clock span
#: timeline never interleaves with the sim-clock epoch tracks.
_SPAN_PID = 1
_SPAN_TID = 1


def _us(ns: float) -> float:
    return ns / 1000.0


def perfetto_trace(records: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Convert an epoch record stream to a Chrome-trace JSON object."""
    records = list(records)
    meta = trace_meta(records)
    events: List[Dict[str, object]] = []

    # Epoch time windows, keyed by epoch index (domain records carry no
    # clock; the epoch record is their timebase).
    windows: Dict[int, tuple] = {}
    domains = set()
    span_anchor_ns: Optional[float] = None
    for rec in records:
        if rec.get("type") == "epoch":
            windows[int(rec["epoch"])] = (float(rec["t_start_ns"]), float(rec["t_end_ns"]))
        elif rec.get("type") == "domain":
            domains.add(int(rec["domain"]))
        elif rec.get("type") == "span":
            t0 = float(rec["t_start_ns"])
            if span_anchor_ns is None or t0 < span_anchor_ns:
                span_anchor_ns = t0

    events.append(
        {"ph": "M", "name": "process_name", "pid": _PID,
         "args": {"name": "repro DVFS epochs"}}
    )
    for d in sorted(domains):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": _PID, "tid": d + 1,
             "args": {"name": f"domain {d}"}}
        )
    if span_anchor_ns is not None:
        events.append(
            {"ph": "M", "name": "process_name", "pid": _SPAN_PID,
             "args": {"name": "repro spans"}}
        )
        events.append(
            {"ph": "M", "name": "thread_name", "pid": _SPAN_PID, "tid": _SPAN_TID,
             "args": {"name": "spans"}}
        )

    last_span_end_us = 0.0
    for rec in records:
        rtype = rec.get("type")
        if rtype == "epoch":
            t0 = _us(float(rec["t_start_ns"]))
            events.append(
                {"ph": "C", "name": "epoch energy", "pid": _PID, "ts": t0,
                 "args": {"energy": rec.get("energy", 0.0)}}
            )
        elif rtype == "domain":
            epoch = int(rec["epoch"])
            window = windows.get(epoch)
            if window is None:
                continue
            t0_ns, t1_ns = window
            t0, dur = _us(t0_ns), _us(t1_ns - t0_ns)
            tid = int(rec["domain"]) + 1
            freq = rec.get("freq_ghz")
            events.append(
                {
                    "ph": "X",
                    "name": f"{freq:.2f} GHz" if freq is not None else "epoch",
                    "cat": "epoch",
                    "pid": _PID,
                    "tid": tid,
                    "ts": t0,
                    "dur": dur,
                    "args": {
                        "epoch": epoch,
                        "pred_commits": rec.get("pred_commits"),
                        "actual_commits": rec.get("actual_commits"),
                        "rel_error": rec.get("rel_error"),
                        "oracle_freq_ghz": rec.get("oracle_freq_ghz"),
                        "busy_ns": rec.get("busy_ns"),
                        "stall_ns": rec.get("stall_ns"),
                    },
                }
            )
            events.append(
                {"ph": "C", "name": f"freq domain {rec['domain']}", "pid": _PID,
                 "ts": t0, "args": {"GHz": freq}}
            )
            if rec.get("mispredicted"):
                events.append(
                    {
                        "ph": "i",
                        "name": "mispredict",
                        "s": "t",
                        "pid": _PID,
                        "tid": tid,
                        "ts": t0,
                        "args": {
                            "chosen_ghz": freq,
                            "oracle_ghz": rec.get("oracle_freq_ghz"),
                        },
                    }
                )
        elif rtype == "span":
            t0_ns = float(rec["t_start_ns"]) - (span_anchor_ns or 0.0)
            dur_ns = float(rec["t_end_ns"]) - float(rec["t_start_ns"])
            last_span_end_us = _us(t0_ns + dur_ns)
            args = dict(rec.get("attrs") or {})
            args["span_id"] = rec["span_id"]
            if rec.get("parent_id"):
                args["parent_id"] = rec["parent_id"]
            events.append(
                {
                    "ph": "X",
                    "name": str(rec["name"]),
                    "cat": "span",
                    "pid": _SPAN_PID,
                    "tid": _SPAN_TID,
                    "ts": _us(t0_ns),
                    "dur": _us(dur_ns),
                    "args": args,
                }
            )
        elif rtype == "alert":
            # Alerts carry an observation index, not a clock: pin the
            # instant to the end of the last span seen before it.
            events.append(
                {
                    "ph": "i",
                    "name": f"drift {rec.get('signal')} ({rec.get('kind')})",
                    "s": "p",
                    "pid": _SPAN_PID,
                    "ts": last_span_end_us,
                    "args": {
                        "signal": rec.get("signal"),
                        "kind": rec.get("kind"),
                        "value": rec.get("value"),
                        "threshold": rec.get("threshold"),
                    },
                }
            )

    # Stable-sort samples by timestamp (metadata first) so every track
    # is monotone - viewers tolerate disorder, the contract checker
    # doesn't have to.
    events.sort(key=lambda e: (0, 0.0) if e["ph"] == "M" else (1, float(e["ts"])))
    trace: Dict[str, object] = {"traceEvents": events, "displayTimeUnit": "ns"}
    if meta is not None:
        trace["otherData"] = meta
    return trace


def save_perfetto_json(
    records: Iterable[Mapping[str, object]], path: PathLike
) -> int:
    """Write the Perfetto trace; returns the number of trace events."""
    trace = perfetto_trace(records)
    pathlib.Path(path).write_text(json.dumps(trace, sort_keys=True))
    return len(trace["traceEvents"])  # type: ignore[arg-type]


__all__ = [
    "perfetto_trace",
    "save_perfetto_json",
]
