"""Trace/run export, read back with the standard library."""

import csv
import json

import pytest

from repro.analysis.phases import profile_sensitivity
from repro.analysis.trace_io import (
    run_result_to_dict,
    save_run_json,
    save_trace_csv,
    trace_to_rows,
)
from repro.config import small_config
from repro.dvfs.designs import make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.telemetry.schema import check_meta
from repro.workloads import build_workload, workload


@pytest.fixture(scope="module")
def cfg():
    return small_config(n_cus=2, waves_per_cu=4)


@pytest.fixture(scope="module")
def run_result(cfg):
    kernels = build_workload(workload("comd"), scale=0.1)
    ctrl = make_controller("PCSTALL", cfg)
    return DvfsSimulation(kernels, ctrl, cfg, max_epochs=100, collect_accuracy=True,
                          oracle_sample_freqs=3).run()


@pytest.fixture(scope="module")
def trace(cfg):
    kernels = build_workload(workload("comd"), scale=0.1)
    return profile_sensitivity(kernels, cfg, max_epochs=6, workload_name="comd")


class TestRunJson:
    def test_dict_contains_metrics(self, run_result):
        d = run_result_to_dict(run_result)
        assert d["design"] == "PCSTALL"
        assert d["ed2p"] == pytest.approx(run_result.ed2p)
        assert abs(sum(d["frequency_residency"].values()) - 1.0) < 1e-6

    def test_round_trip(self, run_result, tmp_path):
        path = tmp_path / "run.json"
        save_run_json(run_result, path)
        loaded = json.loads(path.read_text())
        assert loaded["total_committed"] == run_result.total_committed
        assert loaded["energy"]["total"] == pytest.approx(run_result.energy.total)


class TestRunJsonMeta:
    def test_meta_embedded_and_strict_round_trip(self, run_result, cfg, tmp_path):
        from repro.runtime.cache import config_hash
        from repro.telemetry import TRACE_SCHEMA_VERSION

        path = tmp_path / "run.json"
        save_run_json(run_result, path, config=cfg)
        loaded = json.loads(path.read_text())
        meta = check_meta(loaded["meta"])
        assert meta["schema_version"] == TRACE_SCHEMA_VERSION
        assert meta["config_hash"] == config_hash(cfg)
        assert meta["engine"] == cfg.gpu.engine
        import repro

        assert meta["repro_version"] == repro.__version__


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestTraceCsv:
    def test_rows_cover_all_levels(self, trace):
        rows = trace_to_rows(trace)
        levels = {r[1] for r in rows}
        assert levels == {"cu", "domain", "wf"}

    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        loaded = read_csv(path)
        assert len(loaded) == len(trace_to_rows(trace))
        cu_rows = [r for r in loaded if r["level"] == "cu"]
        assert float(cu_rows[0]["slope"]) == pytest.approx(trace.epochs[0].cu_slopes[0])

    def test_commits_parsed(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        loaded = read_csv(path)
        wf_rows = [r for r in loaded if r["level"] == "wf"]
        assert all(r["commits"].isdigit() for r in wf_rows)
        domain_rows = [r for r in loaded if r["level"] == "domain"]
        assert all(r["commits"] == "" for r in domain_rows)
