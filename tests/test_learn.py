"""The learned-predictor lab (repro.learn).

Covers the full loop the subsystem promises: record observations ->
extract a supervised dataset -> train ridge / online-RLS models ->
version them in the registry -> serve them back through the LEARNED
design, both in-process and over the decision service, with the same
bit-identity guarantees as the hand-built designs.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.core.estimators import CrispModel
from repro.core.predictors import ObserveContext, PhaseHistoryPredictor
from repro.dvfs.designs import (
    DESIGN_NAMES,
    EXTENSION_DESIGNS,
    learned_design_name,
    make_controller,
)
from repro.dvfs.simulation import DvfsSimulation
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.learn import (
    AUX_NAMES,
    FEATURE_NAMES,
    Dataset,
    DatasetError,
    FeatureScaler,
    LearnedPredictor,
    ModelError,
    ModelRegistry,
    ModelResolutionError,
    OnlineRLSModel,
    RidgeModel,
    SensitivityModel,
    compare_designs,
    dataset_hash,
    evaluate_design,
    extract_dataset,
    extract_rows,
    load_dataset,
    offline_metrics,
    save_dataset,
)
from repro.learn.models import RLS_P_TRACE_CAP
from repro.learn.registry import MODEL_DIR_ENV, artifact_id_of
from repro.runtime.executor import SweepTask, run_task
from repro.telemetry import EpochTraceRecorder, TelemetryConfig, load_trace_jsonl
from repro.workloads import build_workload, workload

from helpers import make_loop_program


# ----------------------------------------------------------------------
# Shared artifacts (recorded once per module: tracing is the slow part)


def record_observation_trace(path, design="PCSTALL", workload_name="dgemm",
                             max_epochs=40):
    config = small_config(n_cus=2, waves_per_cu=4)
    recorder = EpochTraceRecorder(TelemetryConfig(
        ring_size=0,
        jsonl_path=str(path),
        record_pc_attribution=False,
        record_observations=True,
    ))
    task = SweepTask(workload_name, design, config, scale=0.15,
                     max_epochs=max_epochs, oracle_sample_freqs=3,
                     collect_accuracy=True)
    with recorder:
        result = run_task(task, recorder=recorder)
    return str(path), result


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("learn") / "pcstall.jsonl"
    return record_observation_trace(path)[0]


@pytest.fixture(scope="module")
def dataset(trace_path) -> Dataset:
    return extract_dataset([trace_path])


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, dataset):
    """A populated registry: one ridge + one RLS model, named refs."""
    root = tmp_path_factory.mktemp("models")
    registry = ModelRegistry(root)
    train = dataset.rows("train")
    ridge = RidgeModel.train(dataset.features[train], dataset.labels[train],
                             seed=0)
    rls = OnlineRLSModel.train(
        dataset.features[train], dataset.next_f[train],
        dataset.next_commits[train], seed=0,
        labels=dataset.labels[train],
        anchor_freqs=dataset.frequency_range(),
    )
    provenance = {"dataset_hash": dataset.content_hash()}
    registry.save(ridge, provenance, name="ridge0")
    registry.save(rls, provenance, name="rls0")
    return root


# ----------------------------------------------------------------------
# Dataset extraction


class TestDataset:
    def test_shapes_and_names(self, dataset):
        n = len(dataset)
        assert n > 0
        assert dataset.features.shape == (n, len(FEATURE_NAMES))
        assert dataset.labels.shape == (n, 2)
        assert dataset.aux.shape == (n, len(AUX_NAMES))
        assert np.isfinite(dataset.features).all()
        assert np.isfinite(dataset.labels).all()
        assert dataset.n_train + dataset.n_eval == n

    def test_extraction_is_deterministic(self, trace_path, dataset):
        again = extract_dataset([trace_path])
        assert dataset_hash(again) == dataset.content_hash()
        assert (again.eval_mask == dataset.eval_mask).all()

    def test_split_masks_partition_rows(self, dataset):
        train, ev = dataset.rows("train"), dataset.rows("eval")
        assert not (train & ev).any()
        assert (train | ev).all()
        with pytest.raises(ValueError, match="unknown split"):
            dataset.rows("test")

    def test_frequency_range_from_sources(self, dataset):
        lo, hi = dataset.frequency_range()
        assert 0.0 < lo < hi

    def test_save_load_round_trip(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.content_hash() == dataset.content_hash()
        assert (loaded.features == dataset.features).all()
        assert loaded.meta["dataset_hash"] == dataset.content_hash()

    def test_tampered_sidecar_detected(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "ds")
        sidecar = tmp_path / "ds.json"
        meta = json.loads(sidecar.read_text())
        meta["dataset_hash"] = "0" * 64
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match="hash mismatch"):
            load_dataset(tmp_path / "ds")

    def test_trace_without_observations_rejected(self, trace_path):
        records = [r for r in load_trace_jsonl(trace_path)
                   if r.get("type") != "observation"]
        with pytest.raises(DatasetError, match="observation"):
            extract_rows(records, source="stripped")

    def test_labels_are_next_epoch_truth(self, trace_path, dataset):
        """Row (epoch e, domain d) is labelled with epoch e+1's truth."""
        observations = {
            int(r["epoch"]): r for r in load_trace_jsonl(trace_path)
            if r.get("type") == "observation"
        }
        row = 0  # first extracted row: first epoch pair, domain 0
        epoch = int(dataset.epoch[row])
        truth = observations[epoch + 1]["truth"][0]
        assert dataset.labels[row][0] == pytest.approx(truth[0])
        assert dataset.labels[row][1] == pytest.approx(truth[1])


# ----------------------------------------------------------------------
# Models


class TestModels:
    def _trained(self, dataset, kind):
        train = dataset.rows("train")
        if kind == "ridge":
            return RidgeModel.train(dataset.features[train],
                                    dataset.labels[train], seed=0)
        return OnlineRLSModel.train(
            dataset.features[train], dataset.next_f[train],
            dataset.next_commits[train], seed=0,
            labels=dataset.labels[train],
            anchor_freqs=dataset.frequency_range(),
        )

    @pytest.mark.parametrize("kind", ["ridge", "rls"])
    def test_payload_round_trip_bit_identical(self, dataset, kind):
        model = self._trained(dataset, kind)
        clone = SensitivityModel.from_payload(model.to_payload())
        x = dataset.features
        assert (model.predict_rows(x) == clone.predict_rows(x)).all()
        # And the payload itself is stable (the registry hashes it).
        assert model.to_payload() == clone.to_payload()

    @pytest.mark.parametrize("kind", ["ridge", "rls"])
    def test_training_is_deterministic(self, dataset, kind):
        a, b = self._trained(dataset, kind), self._trained(dataset, kind)
        assert a.to_payload() == b.to_payload()

    def test_offline_metrics_reasonable(self, dataset):
        model = self._trained(dataset, "ridge")
        m = offline_metrics(model, dataset, split="train")
        assert m["scored"] > 0
        assert 0.0 <= m["rel_p50"] <= m["rel_p90"] <= m["rel_p99"]

    def test_rls_online_update_moves_prediction(self, dataset):
        model = self._trained(dataset, "rls")
        phi = dataset.features[0]
        before = model.predict_line(phi)
        for _ in range(10):
            model.update(phi, 1.7, 5 * model.y_scale)
        after = model.predict_line(phi)
        assert after.predict(1.7) != pytest.approx(before.predict(1.7))

    def test_rls_covariance_stays_bounded_on_one_repeated_row(self, dataset):
        model = self._trained(dataset, "rls")
        phi = dataset.features[0]
        for _ in range(50_000):
            model.update(phi, 1.7, 0.5 * model.y_scale)
        p = model.p_matrix
        assert np.isfinite(model.theta).all()
        assert (p == p.T).all()
        # Rescaling rounds, so the trace may sit an ulp or so above.
        assert np.trace(p) <= RLS_P_TRACE_CAP * (1.0 + 1e-12)

    def test_ridge_is_frozen_online(self, dataset):
        model = self._trained(dataset, "ridge")
        weights = model.weights.copy()
        model.update(dataset.features[0], 1.7, 1e6)
        assert (model.weights == weights).all()

    def test_anchors_require_frequencies(self, dataset):
        train = dataset.rows("train")
        with pytest.raises(ModelError, match="anchor_freqs"):
            OnlineRLSModel.train(
                dataset.features[train], dataset.next_f[train],
                dataset.next_commits[train],
                labels=dataset.labels[train], anchor_freqs=(),
            )

    def test_scaler_keeps_constant_columns(self):
        x = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]])
        scaler = FeatureScaler.fit(x)
        z = scaler.transform(x)
        assert (z[:, 0] == 1.0).all()  # constant bias column survives
        assert z[:, 1].mean() == pytest.approx(0.0)

    def test_unknown_kind_rejected(self, dataset):
        payload = self._trained(dataset, "ridge").to_payload()
        payload["kind"] = "perceptron"
        with pytest.raises(ModelError, match="unknown model kind"):
            SensitivityModel.from_payload(payload)

    def test_feature_schema_mismatch_rejected(self, dataset):
        payload = self._trained(dataset, "ridge").to_payload()
        payload["feature_schema_version"] = 999
        with pytest.raises(ModelError, match="retrain"):
            SensitivityModel.from_payload(payload)


# ----------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_artifact_id_is_content_addressed(self, dataset, tmp_path):
        """Retraining from the same dataset + seed reproduces the id."""
        train = dataset.rows("train")
        ids = []
        for run in range(2):
            registry = ModelRegistry(tmp_path / f"run{run}")
            model = RidgeModel.train(dataset.features[train],
                                     dataset.labels[train], seed=0)
            ids.append(registry.save(
                model, {"dataset_hash": dataset.content_hash()}, name="m"
            ))
        assert ids[0] == ids[1]

    def test_resolve_by_name_id_and_prefix(self, registry_dir):
        registry = ModelRegistry(registry_dir)
        full = registry.resolve("ridge0")
        assert registry.resolve(full) == full
        assert registry.resolve(full[:12]) == full
        assert registry.resolve("latest")  # always points somewhere

    def test_load_round_trips_weights(self, registry_dir):
        registry = ModelRegistry(registry_dir)
        model, document = registry.load("ridge0")
        assert isinstance(model, RidgeModel)
        assert document["artifact_id"] == artifact_id_of(document)
        assert document["provenance"]["dataset_hash"]

    def test_unknown_ref_lists_known(self, registry_dir):
        with pytest.raises(ModelResolutionError, match="ridge0"):
            ModelRegistry(registry_dir).resolve("nonexistent")

    def test_short_prefix_rejected(self, registry_dir):
        registry = ModelRegistry(registry_dir)
        full = registry.resolve("rls0")
        with pytest.raises(ModelResolutionError, match="unknown model"):
            registry.resolve(full[:4])

    def test_bad_ref_names_rejected(self, registry_dir, dataset):
        registry = ModelRegistry(registry_dir)
        _, document = registry.load("rls0")
        for bad in ("../evil", ".hidden", "a b"):
            with pytest.raises(ModelResolutionError):
                registry.set_ref(bad, document["artifact_id"])

    def test_tampered_artifact_rejected(self, registry_dir, tmp_path):
        registry = ModelRegistry(registry_dir)
        full = registry.resolve("ridge0")
        doc = json.loads(
            (pathlib.Path(registry_dir) / "models" / f"{full}.json").read_text()
        )
        doc["model"]["params"]["l2"] = 123.0
        broken = ModelRegistry(tmp_path / "broken")
        path = pathlib.Path(broken.root) / "models" / f"{full}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelResolutionError, match="hash"):
            broken.load(full)


# ----------------------------------------------------------------------
# The LEARNED design: in-process serving


class TestLearnedDesign:
    def test_unknown_design_lists_sorted_names(self):
        cfg = small_config(n_cus=2, waves_per_cu=4)
        expected = ", ".join(sorted(DESIGN_NAMES + EXTENSION_DESIGNS))
        with pytest.raises(ValueError) as excinfo:
            make_controller("NOPE", cfg)
        assert expected in str(excinfo.value)
        assert "STATIC@<f>" in str(excinfo.value)

    def test_bare_learned_needs_a_ref(self):
        cfg = small_config(n_cus=2, waves_per_cu=4)
        with pytest.raises(ModelResolutionError, match="model reference"):
            make_controller("LEARNED", cfg)

    def test_learned_design_name(self):
        assert learned_design_name("abc123") == "LEARNED@abc123"

    def test_controllers_get_fresh_model_instances(self, registry_dir,
                                                   monkeypatch):
        monkeypatch.setenv(MODEL_DIR_ENV, str(registry_dir))
        cfg = small_config(n_cus=2, waves_per_cu=4)
        a = make_controller("LEARNED@rls0", cfg)
        b = make_controller("LEARNED@rls0", cfg)
        assert isinstance(a.predictor, LearnedPredictor)
        assert a.predictor.model is not b.predictor.model

    def test_model_ref_param_serves_bare_learned(self, registry_dir,
                                                 monkeypatch):
        monkeypatch.setenv(MODEL_DIR_ENV, str(registry_dir))
        cfg = small_config(n_cus=2, waves_per_cu=4)
        ctrl = make_controller("LEARNED", cfg, model_ref="ridge0")
        assert isinstance(ctrl.predictor, LearnedPredictor)

    def test_closed_loop_run_and_determinism(self, registry_dir, monkeypatch):
        monkeypatch.setenv(MODEL_DIR_ENV, str(registry_dir))
        cfg = small_config(n_cus=2, waves_per_cu=4)
        results = []
        for _ in range(2):
            kernels = build_workload(workload("dgemm"), scale=0.15)
            ctrl = make_controller("LEARNED@rls0", cfg)
            results.append(DvfsSimulation(
                kernels, ctrl, cfg, design_name="LEARNED@rls0",
                max_epochs=60, collect_accuracy=True,
            ).run())
        assert results[0].epochs > 0
        assert results[0].prediction_accuracy is not None
        # Online updates mutate the model, so a shared instance would
        # break run-to-run determinism; fresh instances keep it exact.
        assert results[0].edp == results[1].edp
        assert results[0].energy.total == results[1].energy.total

    def test_one_observation_for_20k_epochs_keeps_lines_finite(
            self, registry_dir, trace_path, monkeypatch):
        """Without the covariance bound, rls0's trace(P) is about 1e179
        after 10k repeats of one epoch and NaN (thousands of fallbacks
        to the STALL line) by 20k."""
        from repro.service.protocol import epoch_result_from_wire
        from repro.service.replay import load_replay_trace

        monkeypatch.setenv(MODEL_DIR_ENV, str(registry_dir))
        trace = load_replay_trace(trace_path)
        result = epoch_result_from_wire(trace.observations[10]["result"])
        ctrl = make_controller("LEARNED@rls0", small_config(n_cus=2, waves_per_cu=4))
        ctrl.decide()
        for _ in range(20_000):
            ctrl.observe(result)
            ctrl.decide()
        assert ctrl.non_finite_fallbacks == 0
        model = ctrl.predictor.model
        assert np.isfinite(model.theta).all()
        assert np.trace(model.p_matrix) <= RLS_P_TRACE_CAP * (1.0 + 1e-12)

    def test_evaluate_design_collects_accuracy(self, registry_dir, dataset):
        model = ModelRegistry(registry_dir).load("ridge0")[0]
        cfg = small_config(n_cus=2, waves_per_cu=4)
        ev = evaluate_design("dgemm", "LEARNED", cfg, model=model,
                             scale=0.15, max_epochs=40,
                             oracle_sample_freqs=3)
        assert ev.result.prediction_accuracy is not None
        assert ev.accuracy.domain_records > 0
        assert ev.edp > 0 and ev.ed2p > 0

    def test_compare_designs_report(self, registry_dir, dataset):
        model = ModelRegistry(registry_dir).load("ridge0")[0]
        cfg = small_config(n_cus=2, waves_per_cu=4)
        report = compare_designs(
            model, "dgemm", cfg, baselines=("STATIC@1.7",),
            include_oracle=True, dataset=dataset,
            scale=0.15, max_epochs=40, oracle_sample_freqs=3,
        )
        assert [r.design for r in report.rows] == \
            ["LEARNED", "STATIC@1.7", "ORACLE"]
        assert report.offline is not None
        rendered = report.render()
        assert "LEARNED" in rendered and "ORACLE" in rendered


# ----------------------------------------------------------------------
# CLI round trip (extract -> train -> list -> eval), reproducible hashes


class TestLearnCli:
    def _extract(self, trace_path, tmp_path):
        from repro.cli import main

        base = tmp_path / "ds"
        assert main(["learn", "extract", trace_path, "-o", str(base)]) == 0
        return base

    def test_round_trip_with_stable_hashes(self, trace_path, tmp_path,
                                           capsys):
        from repro.cli import main

        base = self._extract(trace_path, tmp_path)
        capsys.readouterr()

        ids = []
        for run in range(2):
            model_dir = tmp_path / f"models{run}"
            for kind in ("ridge", "rls"):
                assert main([
                    "learn", "train", str(base), "--kind", kind,
                    "--name", kind, "--model-dir", str(model_dir),
                ]) == 0
                out = capsys.readouterr().out
                ids.append(out.split("artifact ")[1].split()[0])
            assert main(["learn", "list", "--model-dir", str(model_dir)]) == 0
            out = capsys.readouterr().out
            assert "ridge" in out and "rls" in out
        # Two independent runs over the same dataset: identical artifacts.
        assert ids[0] == ids[2] and ids[1] == ids[3]

    def test_eval_runs_and_gates(self, trace_path, tmp_path, capsys):
        from repro.cli import main

        base = self._extract(trace_path, tmp_path)
        model_dir = tmp_path / "models"
        assert main(["learn", "train", str(base), "--kind", "ridge",
                     "--name", "m", "--model-dir", str(model_dir)]) == 0
        capsys.readouterr()
        rc = main([
            "learn", "eval", "m", "dgemm", "--model-dir", str(model_dir),
            "--dataset", str(base), "--baselines", "STATIC@1.7",
            "--cus", "2", "--waves", "4", "--scale", "0.15",
            "--max-epochs", "40", "--gate-baseline", "STATIC@1.7",
        ])
        out = capsys.readouterr().out
        assert "LEARNED" in out and "ORACLE" in out
        assert "held-out offline" in out
        # The gate verdict matches the exit code either way (a tiny
        # 40-epoch run is not required to beat the baseline).
        assert ("OK: LEARNED" in out) == (rc == 0)
        assert ("FAIL: LEARNED" in out) == (rc == 1)

    def test_extract_rejects_bare_trace(self, tmp_path):
        from repro.cli import main

        bare = tmp_path / "bare.jsonl"
        bare.write_text('{"type": "run", "workload": "w"}\n')
        with pytest.raises(SystemExit, match="learn extract"):
            main(["learn", "extract", str(bare), "-o", str(tmp_path / "d")])


# ----------------------------------------------------------------------
# Serving over the decision service + replay bit-identity


class TestLearnedService:
    @pytest.fixture()
    def server(self, registry_dir, monkeypatch):
        from test_service import ServerHandle
        from repro.service.server import ServiceConfig

        monkeypatch.setenv(MODEL_DIR_ENV, str(registry_dir))
        handle = ServerHandle(ServiceConfig(
            port=0, health_port=None, model_ref="ridge0",
        ))
        yield handle
        handle.stop()

    def test_replay_learned_trace_bit_identical(self, server, registry_dir,
                                                tmp_path, monkeypatch):
        from repro.service.replay import replay_trace

        monkeypatch.setenv(MODEL_DIR_ENV, str(registry_dir))
        path, _ = record_observation_trace(
            tmp_path / "learned.jsonl", design="LEARNED@rls0", max_epochs=30,
        )
        report = replay_trace(path, port=server.port)
        assert report.bit_identical, report.render()
        assert report.decisions_compared == report.epochs_streamed > 0

    def test_bare_learned_uses_service_default_model(self, server):
        from repro.service.client import DecisionClient

        cfg = small_config(n_cus=2, waves_per_cu=4)
        with DecisionClient(port=server.port).connect() as client:
            decision = client.open_session("LEARNED", cfg)
            assert len(decision) == cfg.gpu.n_domains

    def test_unknown_model_ref_rejected_as_bad_open(self, server):
        from repro.service.client import DecisionClient, SessionRejected

        cfg = small_config(n_cus=2, waves_per_cu=4)
        with DecisionClient(port=server.port).connect() as client:
            with pytest.raises(SessionRejected) as excinfo:
                client.open_session("LEARNED@no-such-model", cfg)
            assert excinfo.value.code == "bad_open"


# ----------------------------------------------------------------------
# PhaseHistoryPredictor bounded-table guarantee (satellite)


class TestPhaseHistoryBound:
    @pytest.fixture(scope="class")
    def epoch_results(self):
        cfg = small_config(n_cus=2, waves_per_cu=4)
        gpu = Gpu(cfg.gpu, 1.7)
        gpu.load_kernel(Kernel.homogeneous(
            make_loop_program(trips=3000), WorkgroupGeometry(4, 2)
        ))
        return cfg, [gpu.run_epoch(1000.0) for _ in range(8)]

    def test_cap_enforced(self):
        cfg = small_config(n_cus=2, waves_per_cu=4)
        with pytest.raises(ValueError, match="MAX_HISTORY_LENGTH"):
            PhaseHistoryPredictor(
                CrispModel(), cfg.gpu,
                history_length=PhaseHistoryPredictor.MAX_HISTORY_LENGTH + 1,
            )
        # The cap itself is accepted.
        PhaseHistoryPredictor(
            CrispModel(), cfg.gpu,
            history_length=PhaseHistoryPredictor.MAX_HISTORY_LENGTH,
        )

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        history_length=st.integers(min_value=1, max_value=3),
        n_levels=st.integers(min_value=2, max_value=4),
        order=st.lists(st.integers(min_value=0, max_value=7),
                       min_size=1, max_size=40),
    )
    def test_table_stays_bounded(self, epoch_results, history_length,
                                 n_levels, order):
        """However epochs arrive, storage never exceeds the hard bound."""
        cfg, results = epoch_results
        p = PhaseHistoryPredictor(CrispModel(), cfg.gpu,
                                  history_length=history_length,
                                  n_levels=n_levels)
        ctx = ObserveContext(config=cfg.gpu, f_lo_ghz=1.3, f_hi_ghz=2.2)
        for i in order:
            p.observe(results[i], ctx)
            assert p.table_entries() <= p.max_table_entries()
            # ... and never more than one entry per observed pattern.
            assert p.table_entries() <= len(order) * cfg.gpu.n_domains
        assert p.max_table_entries() == \
            cfg.gpu.n_domains * n_levels ** history_length
