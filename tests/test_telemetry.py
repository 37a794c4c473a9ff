"""Telemetry subsystem: metrics, epoch recorder, exporters, accuracy.

The contract that matters most is pinned here: **off means off** - a
simulation without a recorder produces bit-identical results to one
with a recorder attached, and never allocates a telemetry object
(enforced by poisoning the constructors).
"""

import json

import pytest

from repro.config import small_config
from repro.dvfs.designs import make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    AccuracyReport,
    EpochTraceRecorder,
    Histogram,
    MetricsRegistry,
    TelemetryConfig,
    build_meta,
    check_meta,
    load_trace_jsonl,
    percentile,
    perfetto_trace,
    save_perfetto_json,
    validate_records,
    validate_trace_file,
)
from repro.workloads import build_workload, workload

from test_engine_equivalence import result_signature

CFG = small_config(n_cus=2, waves_per_cu=4)
N_DOMAINS = CFG.gpu.n_domains


def run_sim(telemetry=None, design="PCSTALL", name="dgemm", max_epochs=40):
    kernels = build_workload(workload(name), scale=0.15)
    ctrl = make_controller(design, CFG)
    sim = DvfsSimulation(
        kernels, ctrl, CFG, design_name=design, workload_name=name,
        collect_accuracy=True, max_epochs=max_epochs, oracle_sample_freqs=3,
        telemetry=telemetry,
    )
    return sim.run()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One PCSTALL run recorded to ring + JSONL."""
    path = tmp_path_factory.mktemp("telemetry") / "epochs.jsonl"
    rec = EpochTraceRecorder(TelemetryConfig(jsonl_path=str(path)))
    result = run_sim(telemetry=rec)
    rec.close()
    return rec, result, path


class TestMetrics:
    def test_histogram_buckets_observations(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0, 9.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]  # the last bucket is the overflow
        assert h.total == 5
        assert h.sum == 15.5

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_registry_redeclared_histogram_bounds_raise(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", (3.0,))

    def test_percentile_exact(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestRecorder:
    def test_record_stream_shape(self, recorded):
        rec, result, _ = recorded
        counts = validate_records(list(rec.records) + rec.final_records)
        assert counts["run"] == 1
        assert counts["epoch"] == result.epochs
        assert counts["domain"] == result.epochs * N_DOMAINS
        assert counts["summary"] == 1
        assert counts["pc"] >= 1  # PCSTALL attributes error to PCs

    def test_jsonl_stream_validates_and_matches_ring(self, recorded):
        rec, result, path = recorded
        counts = validate_trace_file(path)
        assert counts["epoch"] == result.epochs
        assert counts["domain"] == result.epochs * N_DOMAINS
        records = load_trace_jsonl(path)
        assert records[0]["type"] == "run"
        assert records[-1]["type"] == "summary"

    def test_run_header_meta(self, recorded):
        rec, _, _ = recorded
        meta = check_meta(rec.meta)
        assert meta["schema_version"] == TRACE_SCHEMA_VERSION
        assert meta["config_hash"]
        assert meta["engine"] == CFG.gpu.engine
        assert meta["workload"] == "dgemm"

    def test_domain_records_score_against_oracle(self, recorded):
        rec, _, _ = recorded
        domains = rec.domain_records()
        scored = [r for r in domains if r["rel_error"] is not None]
        assert scored, "PCSTALL must make scorable predictions"
        assert all(r["rel_error"] >= 0.0 for r in scored)
        with_oracle = [r for r in domains if r["oracle_freq_ghz"] is not None]
        assert with_oracle
        for r in with_oracle:
            assert r["mispredicted"] == (
                abs(r["freq_ghz"] - r["oracle_freq_ghz"]) > 1e-6
            )

    def test_stall_breakdown_partitions_epoch(self, recorded):
        rec, _, _ = recorded
        per = CFG.gpu.cus_per_domain
        epoch_ns = CFG.dvfs.epoch_ns
        for r in rec.domain_records():
            assert r["busy_ns"] >= 0.0
            assert r["stall_ns"] >= 0.0
            assert r["busy_ns"] + r["stall_ns"] == pytest.approx(epoch_ns * per)

    def test_pc_table_deltas_sum_to_cumulative(self, recorded):
        rec, result, _ = recorded
        epochs = [r for r in rec.records if r["type"] == "epoch"]
        assert all("pc_lookups" in r for r in epochs)
        assert all(r["pc_lookups"] >= 0 for r in epochs)
        total_hits = sum(r["pc_hits"] for r in epochs)
        total_lookups = sum(r["pc_lookups"] for r in epochs)
        assert 0 < total_lookups
        assert result.pc_hit_ratio == pytest.approx(total_hits / total_lookups)

    def test_pc_attribution_aggregates(self, recorded):
        rec, _, _ = recorded
        assert rec.pc_stats
        for stat in rec.pc_stats.values():
            assert stat.samples > 0
            assert stat.weighted_error >= 0.0

    def test_ring_bounds_memory_but_jsonl_keeps_all(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        rec = EpochTraceRecorder(TelemetryConfig(ring_size=6, jsonl_path=str(path)))
        result = run_sim(telemetry=rec, max_epochs=20)
        rec.close()
        assert len(rec.records) <= 6
        assert rec.dropped > 0
        counts = validate_trace_file(path)  # the stream archived fully
        assert counts["epoch"] == result.epochs

    def test_final_records_never_evict_epochs(self, tmp_path):
        """Flushing PC attribution at end-of-run must not push epoch
        records out of a ring that had room for the whole run."""
        ring = 200 * (N_DOMAINS + 1)
        rec = EpochTraceRecorder(TelemetryConfig(ring_size=ring))
        result = run_sim(telemetry=rec, max_epochs=20)
        assert rec.dropped == 0
        assert len([r for r in rec.records if r["type"] == "epoch"]) == result.epochs
        assert all(r["type"] != "pc" for r in rec.records)
        assert any(r["type"] == "pc" for r in rec.final_records)

    def test_negative_ring_size_rejected(self):
        with pytest.raises(ValueError):
            TelemetryConfig(ring_size=-1)

    def test_record_stream_is_reproducible(self, tmp_path):
        """Records carry simulated time only, so two recordings of one
        cell are byte-identical files."""
        paths = [tmp_path / f"run{i}.jsonl" for i in range(2)]
        for path in paths:
            with EpochTraceRecorder(TelemetryConfig(
                jsonl_path=str(path), record_observations=True,
            )) as rec:
                run_sim(telemetry=rec, max_epochs=12)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_write_puts_foreign_records_in_the_stream_only(self, tmp_path):
        path = tmp_path / "run.jsonl"
        rec = EpochTraceRecorder(TelemetryConfig(jsonl_path=str(path)))
        rec.write({"type": "alert"})  # before the run: no stream yet
        result = run_sim(telemetry=rec, max_epochs=4)
        rec.write({"type": "span", "span_id": "1", "parent_id": "",
                   "name": "late", "t_start_ns": 0, "t_end_ns": 1})
        rec.close()
        records = load_trace_jsonl(path)
        assert [r["type"] for r in records][-2:] == ["summary", "span"]
        assert all(r["type"] != "alert" for r in records)
        assert rec.total_records == result.epochs * (N_DOMAINS + 1)
        assert all(r["type"] != "span" for r in rec.in_memory())


class TestOffPath:
    def test_disabled_results_bit_identical(self):
        baseline = result_signature(run_sim(telemetry=None))
        with_recorder = result_signature(
            run_sim(telemetry=EpochTraceRecorder(TelemetryConfig()))
        )
        assert baseline == with_recorder

    def test_disabled_run_allocates_no_telemetry_objects(self, monkeypatch):
        """With telemetry=None the loop must never touch the telemetry
        classes; poisoned constructors prove it."""

        def boom(self, *a, **kw):
            raise AssertionError("telemetry object allocated on the off path")

        monkeypatch.setattr(EpochTraceRecorder, "__init__", boom)
        monkeypatch.setattr(MetricsRegistry, "__init__", boom)
        result = run_sim(telemetry=None)
        assert result.epochs > 0


class TestPerfetto:
    def test_trace_structure(self, recorded):
        rec, result, _ = recorded
        trace = perfetto_trace(rec.records)
        assert trace["displayTimeUnit"] == "ns"
        assert trace["otherData"]["schema_version"] == TRACE_SCHEMA_VERSION
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "C"} <= phases
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == result.epochs * N_DOMAINS
        for e in slices:
            assert e["dur"] >= 0
            assert e["ts"] >= 0

    def test_counter_tracks_cover_every_domain(self, recorded):
        rec, _, _ = recorded
        counters = {
            e["name"] for e in perfetto_trace(rec.records)["traceEvents"]
            if e["ph"] == "C"
        }
        for d in range(N_DOMAINS):
            assert f"freq domain {d}" in counters
        assert "epoch energy" in counters

    def test_save_writes_loadable_json(self, recorded, tmp_path):
        rec, _, _ = recorded
        path = tmp_path / "trace.perfetto.json"
        n = save_perfetto_json(rec.records, path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == n > 0


class TestAccuracyReport:
    def test_ring_and_jsonl_agree(self, recorded):
        rec, _, path = recorded
        from_ring = AccuracyReport.from_records(rec.in_memory())
        from_file = AccuracyReport.from_records(load_trace_jsonl(path))
        assert from_ring.error_percentiles() == from_file.error_percentiles()
        assert from_ring.confusion == from_file.confusion
        assert from_ring.pc_attribution == from_file.pc_attribution

    def test_agreement_and_decisions(self, recorded):
        rec, result, _ = recorded
        rep = AccuracyReport.from_records(rec.in_memory())
        assert rep.decisions == result.epochs * N_DOMAINS
        assert 0.0 <= rep.agreement <= 1.0

    def test_confusion_grid_conserves_counts(self, recorded):
        rec, _, _ = recorded
        rep = AccuracyReport.from_records(rec.in_memory())
        _, grid = rep.confusion_grid()
        assert sum(sum(row) for row in grid) == rep.decisions

    def test_merge_sums(self, recorded):
        rec, _, _ = recorded
        a = AccuracyReport.from_records(rec.in_memory())
        b = AccuracyReport.from_records(rec.in_memory())
        decisions = a.decisions
        merged = a.merge(b)
        assert merged.decisions == 2 * decisions
        assert merged.epochs == 2 * b.epochs

    def test_renderings_are_tables(self, recorded):
        rec, _, _ = recorded
        rep = AccuracyReport.from_records(rec.in_memory(), label="dgemm/PCSTALL")
        assert "confusion" in rep.render_confusion()
        assert "PCs" in rep.render_top_pcs(3)


class TestSchema:
    def test_meta_check_rejects_wrong_version(self):
        meta = build_meta()
        meta["schema_version"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            check_meta(meta)

    def test_meta_check_rejects_non_mapping(self):
        with pytest.raises(ValueError):
            check_meta(None)

    def test_stream_must_start_with_run_record(self):
        with pytest.raises(ValueError, match="run record"):
            validate_records([{"type": "summary", "workload": "w", "design": "d",
                              "epochs": 1, "delay_ns": 1.0, "energy_total": 1.0}])

    @pytest.mark.parametrize("types", [
        ("run", "epoch", "run", "epoch"),
        ("run", "epoch", "trace"),
        ("trace", "run"),
    ])
    def test_stream_holds_exactly_one_header(self, recorded, types):
        rec, _, _ = recorded
        samples = {
            "run": {"type": "run", **rec.meta},
            "trace": {"type": "trace", **build_meta()},
            "epoch": next(r for r in rec.records if r["type"] == "epoch"),
        }
        with pytest.raises(ValueError, match="exactly one header"):
            validate_records([samples[t] for t in types])

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError, match="unknown record type"):
            validate_records([{"type": "mystery"}])

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_records([])

    def test_config_hash_stamps_platform(self):
        from dataclasses import replace

        a = build_meta(CFG)["config_hash"]
        same = build_meta(small_config(n_cus=2, waves_per_cu=4))["config_hash"]
        other = build_meta(
            replace(CFG, dvfs=replace(CFG.dvfs, epoch_ns=2000.0))
        )["config_hash"]
        assert a == same
        assert a != other
