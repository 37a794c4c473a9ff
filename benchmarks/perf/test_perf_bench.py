"""Tests of the end-to-end benchmark at smoke size (about a second of
work per workload, so the whole file runs in about a minute)::

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """Run run.py at smoke size; identical invocations run once."""
    out_dir = tmp_path_factory.mktemp("perf")
    runs = {}

    def run(workload, seed=1, trace=0, env=None):
        key = (workload, seed, trace, tuple(sorted((env or {}).items())))
        if key not in runs:
            out = out_dir / f"run{len(runs)}.json"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
                 "--trace-dir", str(out_dir / "spans"), "--out", str(out)],
                capture_output=True, text=True, timeout=600, cwd=ROOT,
                env={**os.environ, **(env or {})},
            )
            assert proc.returncode == 0, proc.stderr
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[key] = (line, json.loads(out.read_text(encoding="utf-8")))
        return runs[key]

    return run


def test_benchmark_json_names_the_workloads_run_py_knows():
    import run

    assert WORKLOADS == list(run.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(bench, workload):
    line, _ = bench(workload)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_with_the_untraced_digest(bench, workload):
    line, record = bench(workload, 1, 1)
    assert line["correct"] and line["failed"] == 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == _units("per_layer")
    assert record["sim_digest"] == record["extras"]["traced_digest"]
    assert record["sim_digest"] == bench(workload)[1]["sim_digest"]
    assert Path(record["extras"]["spans"]).stat().st_size > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_the_digest_but_not_the_metric_names(bench, workload):
    line_1, record_1 = bench(workload, 1)
    line_2, record_2 = bench(workload, 2)
    assert record_2["sim_digest"] != record_1["sim_digest"]
    assert list(line_2["metrics"]) == list(line_1["metrics"])
    assert bench(workload, 1)[1]["sim_digest"] == record_1["sim_digest"]


def test_a_corrupted_expected_decision_is_a_failed_operation(tmp_path, monkeypatch):
    import workloads
    from repro.workloads import WORKLOADS as registry

    # The server child imports the program the way run.py's children do.
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    monkeypatch.setenv("REPRO_MODEL_DIR", str(tmp_path / "models"))
    before = set(registry)
    try:
        conns = workloads.prepare_serving(1, workloads.SMOKE_SERVING, tmp_path)
    finally:
        for name in set(registry) - before:  # the seed's copies of the suite
            del registry[name]
    conns[0].expected[1] = [f + 0.1 for f in conns[0].expected[1]]
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--health-port", "0",
           "--model-dir", str(tmp_path / "models")]
    result = workloads.serve_pass(cmd, conns, sessions=1)
    assert result["attempted"] > 2
    assert result["failed"] == 1


def test_an_injected_failing_cell_is_a_failed_operation(bench):
    plan = {"specs": [{"cell": "*/PCSTALL", "mode": "raise", "attempts": None,
                       "hang_s": 5.0}]}
    line, _ = bench("energy_sweep", env={"REPRO_FAULT_PLAN": json.dumps(plan)})
    assert line["failed"] >= 1
    assert not line["correct"]


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_host_speed_scales_by_the_samples_around_a_timing():
    import hostspeed

    ref = hostspeed.REFERENCE_LOOP_S
    speed = hostspeed.HostSpeed(hostspeed.work_cpus(1))
    # Fast loops for 10 s, then loops twice as slow, one of them preempted.
    speed.samples = [(t * 0.1, ref) for t in range(100)]
    speed.samples += [(10 + t * 0.1, 2 * ref) for t in range(100)]
    speed.samples[150] = (15.0, 10 * ref)
    assert speed.scale(1.0, 9.0) == pytest.approx(1.0)
    assert speed.scale(12.0, 19.0) == pytest.approx(0.5)
    # A short timing takes the samples of MIN_WINDOW_S around it.
    assert speed.scale(9.9, 10.0) == pytest.approx(1 / 1.5, rel=0.05)


def _record(workload, seed, **values):
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]}
               for m in BENCHMARK["end_to_end"]}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    return {"workload": workload, "seed": seed, "trace": 0, "result": result}


def test_compare_accepts_equal_sets_and_flags_a_shifted_median(capsys):
    same = {"energy_sweep": [_record("energy_sweep", s, epochs_per_s=100.0 + s)
                             for s in range(5)]}
    slower = {"energy_sweep": [_record("energy_sweep", s, epochs_per_s=60.0 + s)
                               for s in range(5)]}
    assert compare.compare(same, same, BENCHMARK)
    assert not compare.compare(same, slower, BENCHMARK)
    assert "FAIL median" in capsys.readouterr().out
