"""Chrome-trace/Perfetto exporter contract.

The exported JSON must satisfy the viewer contract (required
``ph``/``ts``/``pid``/``name`` fields, non-negative durations, monotone
per-track timestamps, matched ``B``/``E`` pairs) - pinned here both for
real exports (epoch records, span records, alerts) and for the
checker itself, :func:`helpers.validate_trace_events`.
"""

from __future__ import annotations

import json

import pytest

from repro.config import small_config
from repro.obs import Tracer
from repro.runtime.executor import SweepTask, run_task
from repro.telemetry import (
    EpochTraceRecorder,
    TelemetryConfig,
    build_meta,
    load_trace_jsonl,
    perfetto_trace,
    save_perfetto_json,
)

from helpers import validate_trace_events, validate_trace_json


def record_small_run(jsonl_path=None, traced=False, max_epochs=6):
    """One small run; with ``traced`` its spans go into the recorder's
    stream, as ``repro trace --trace`` writes them."""
    task = SweepTask(
        "dgemm",
        "PCSTALL",
        small_config(n_cus=2, waves_per_cu=4),
        scale=0.12,
        max_epochs=max_epochs,
        oracle_sample_freqs=3,
        collect_accuracy=True,
    )
    recorder = EpochTraceRecorder(
        TelemetryConfig(ring_size=4096, jsonl_path=jsonl_path)
    )
    with recorder:
        tracer = Tracer(write=recorder.write) if traced else None
        run_task(task, recorder=recorder, tracer=tracer)
    return recorder


#: One process's span stream, as ``repro serve --trace`` writes it.
SPAN_RECORDS = [
    {"type": "trace", **build_meta()},
    {"type": "span", "span_id": "1", "parent_id": "",
     "name": "run", "t_start_ns": 1_000_000, "t_end_ns": 9_000_000,
     "attrs": {"workload": "dgemm"}},
    {"type": "span", "span_id": "2", "parent_id": "1",
     "name": "epoch", "t_start_ns": 1_500_000, "t_end_ns": 5_000_000,
     "attrs": {"epoch": 0}},
    {"type": "span", "span_id": "3", "parent_id": "2",
     "name": "oracle_sample", "t_start_ns": 2_000_000, "t_end_ns": 4_000_000,
     "attrs": {}},
    {"type": "alert", "signal": "rel_error", "kind": "alert", "value": 0.8,
     "threshold": 0.5, "window_count": 16, "at_index": 40},
]


class TestEpochExport:
    def test_real_export_passes_the_contract(self):
        recorder = record_small_run()
        trace = perfetto_trace(recorder.records)
        counts = validate_trace_events(trace["traceEvents"])
        assert counts["M"] >= 3  # process + one thread per domain
        assert counts["X"] > 0 and counts["C"] > 0
        assert trace["otherData"]["workload"] == "dgemm"

    def test_domain_slices_carry_decision_args(self):
        recorder = record_small_run()
        trace = perfetto_trace(recorder.records)
        slices = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and e.get("cat") == "epoch"]
        assert slices
        for event in slices:
            assert event["pid"] == 0 and event["tid"] >= 1
            assert event["dur"] >= 0
            assert "pred_commits" in event["args"]
            assert "rel_error" in event["args"]

    def test_save_round_trips_through_file_validator(self, tmp_path):
        recorder = record_small_run()
        path = tmp_path / "trace.json"
        n = save_perfetto_json(recorder.records, path)
        counts = validate_trace_json(path)
        assert sum(counts.values()) == n


class TestSpanExport:
    def test_spans_render_on_their_own_process(self):
        trace = perfetto_trace(SPAN_RECORDS)
        events = trace["traceEvents"]
        validate_trace_events(events)

        procs = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "repro spans" in procs
        slices = {e["args"]["span_id"]: e for e in events
                  if e["ph"] == "X" and e.get("cat") == "span"}
        assert set(slices) == {"1", "2", "3"}
        # Wall timestamps are re-anchored: the earliest span starts at 0.
        assert slices["1"]["ts"] == 0.0
        assert slices["1"]["dur"] == pytest.approx(8000.0)  # us
        assert slices["3"]["args"]["parent_id"] == "2"

    def test_spans_share_one_lane(self):
        events = perfetto_trace(SPAN_RECORDS)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X" and e.get("cat") == "span"]
        assert {(e["pid"], e["tid"]) for e in slices} == {(1, 1)}
        threads = [(e["pid"], e["tid"], e["args"]["name"]) for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1]
        assert threads == [(1, 1, "spans")]

    def test_trace_header_stamps_provenance(self):
        other = perfetto_trace(SPAN_RECORDS)["otherData"]
        assert other["type"] == "trace"
        assert other["repro_version"] == SPAN_RECORDS[0]["repro_version"]

    def test_alert_renders_as_instant_pinned_to_last_span(self):
        trace = perfetto_trace(SPAN_RECORDS)
        (instant,) = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "drift rel_error (alert)"
        assert instant["s"] == "p"
        # Pinned to the end of the last span in stream order (the
        # oracle_sample span, ending 3 ms after the anchor).
        assert instant["ts"] == pytest.approx(3000.0)
        assert instant["args"]["value"] == 0.8

    def test_merged_epoch_and_span_streams_validate(self, tmp_path):
        stream = tmp_path / "run.jsonl"
        record_small_run(jsonl_path=str(stream), traced=True)
        path = tmp_path / "merged.json"
        save_perfetto_json(load_trace_jsonl(stream), path)
        counts = validate_trace_json(path)
        run_spans = [
            e for e in json.loads(path.read_text())["traceEvents"]
            if e.get("cat") == "span" and e["name"] == "run"
        ]
        assert len(run_spans) == 1
        assert counts["X"] > counts["M"]


class TestValidator:
    def base(self):
        return [
            {"ph": "M", "name": "process_name", "pid": 0,
             "args": {"name": "p"}},
            {"ph": "X", "name": "a", "pid": 0, "tid": 1, "ts": 0.0,
             "dur": 5.0},
            {"ph": "X", "name": "b", "pid": 0, "tid": 1, "ts": 2.0,
             "dur": 1.0},
        ]

    def test_accepts_well_formed_events(self):
        assert validate_trace_events(self.base()) == {"M": 1, "X": 2}

    def test_matched_b_e_pairs_accepted(self):
        events = [
            {"ph": "B", "name": "outer", "pid": 0, "tid": 1, "ts": 0.0},
            {"ph": "B", "name": "inner", "pid": 0, "tid": 1, "ts": 1.0},
            {"ph": "E", "name": "inner", "pid": 0, "tid": 1, "ts": 2.0},
            {"ph": "E", "name": "outer", "pid": 0, "tid": 1, "ts": 3.0},
        ]
        assert validate_trace_events(events) == {"B": 2, "E": 2}

    @pytest.mark.parametrize("mutate,complaint", [
        (lambda e: e[1].__setitem__("ph", "Z"), "unknown phase"),
        (lambda e: e[1].pop("name"), "missing name"),
        (lambda e: e[1].pop("pid"), "missing pid"),
        (lambda e: e[1].pop("ts"), "bad ts"),
        (lambda e: e[1].__setitem__("ts", -1.0), "bad ts"),
        (lambda e: e[2].__setitem__("ts", -0.5), "bad ts"),
        (lambda e: e[1].__setitem__("ts", 3.0), "goes backwards"),
        (lambda e: e[1].pop("tid"), "missing tid"),
        (lambda e: e[1].pop("dur"), "bad dur"),
        (lambda e: e[1].__setitem__("dur", -2.0), "bad dur"),
    ])
    def test_rejects_contract_violations(self, mutate, complaint):
        events = self.base()
        mutate(events)
        with pytest.raises(ValueError, match=complaint):
            validate_trace_events(events)

    def test_rejects_unmatched_duration_events(self):
        with pytest.raises(ValueError, match="no open B"):
            validate_trace_events([
                {"ph": "E", "name": "x", "pid": 0, "tid": 1, "ts": 0.0},
            ])
        with pytest.raises(ValueError, match="unclosed B"):
            validate_trace_events([
                {"ph": "B", "name": "x", "pid": 0, "tid": 1, "ts": 0.0},
            ])
        with pytest.raises(ValueError, match="closes B"):
            validate_trace_events([
                {"ph": "B", "name": "x", "pid": 0, "tid": 1, "ts": 0.0},
                {"ph": "E", "name": "y", "pid": 0, "tid": 1, "ts": 1.0},
            ])

    def test_validate_json_requires_event_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": []}))
        with pytest.raises(ValueError, match="no traceEvents"):
            validate_trace_json(path)
