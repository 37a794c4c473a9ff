"""Experiment drivers (fast, tiny-scale versions)."""

import pytest

from repro.analysis.experiments import (
    EVAL_DESIGNS,
    ExperimentSetup,
    design_matrix,
    fig05_linearity,
    fig06_profiles,
    fig08_wavefront_contributions,
    fig10_pc_repeatability,
    oracle_validation,
    tab1_storage,
)
from repro.config import small_config
from repro.dvfs.oracle import OracleSampler


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(
        config=small_config(),
        workloads=("comd", "xsbench"),
        scale=0.15,
        max_epochs=120,
        oracle_sample_freqs=3,
    )


class TestSetup:
    def test_workload_list_default_is_full_suite(self):
        assert len(ExperimentSetup().workload_list()) == 16

    def test_workload_list_subset(self, setup):
        assert setup.workload_list() == ["comd", "xsbench"]


class TestTab1:
    def test_matches_hardware_model(self):
        r = tab1_storage()
        assert r.bytes_per_design["PCSTALL"] == 328
        assert "PCSTALL" in r.render()


class TestFig05:
    def test_runs_and_renders(self, setup):
        r = fig05_linearity(setup, sample_epochs=(2, 4))
        assert set(r.per_workload) == {"comd", "xsbench"}
        assert 0.0 <= r.mean_r_squared <= 1.0
        assert "R^2" in r.render()


class TestFig06:
    def test_profiles_have_series(self, setup):
        r = fig06_profiles(setup, apps=("comd",), max_epochs=8)
        assert len(r.profiles["comd"]) == 8
        assert "comd" in r.render()


class TestFig08:
    def test_contributions_structure(self, setup):
        r = fig08_wavefront_contributions(setup, app="comd", max_epochs=8, max_slots=4)
        assert len(r.slot_series) == 4
        assert len(r.cu_series) == 8


class TestFig10:
    def test_granularities_reported(self, setup):
        r = fig10_pc_repeatability(setup, apps=("comd",), max_epochs=12)
        assert set(r.per_granularity) == {"wf", "cu", "gpu"}
        assert r.consecutive_wf > 0


class TestOracleValidation:
    def test_high_accuracy(self, setup):
        r = oracle_validation(setup, app="comd", probes=2)
        assert r.accuracy > 0.9

    def test_unscorable_probes_skipped(self, setup, monkeypatch):
        scores = iter([None, 0.5, None, 0.75])
        monkeypatch.setattr(
            OracleSampler, "validation_accuracy", lambda self, gpu, chosen: next(scores)
        )
        r = oracle_validation(setup, app="comd", probes=4)
        assert r.accuracy == 0.625


class TestEpochTrend:
    def test_trend_structure(self, setup):
        from repro.analysis.experiments import epoch_duration_trend

        r = epoch_duration_trend(
            setup, designs=("STALL",), epoch_durations_ns=(1_000.0,), n=2
        )
        assert 1_000.0 in r.values
        assert "STALL" in r.values[1_000.0]
        assert r.metric_name == "ED2P"
        assert "STALL" in r.render()

    def test_edp_metric_name(self, setup):
        from repro.analysis.experiments import epoch_duration_trend

        r = epoch_duration_trend(
            setup, designs=("STALL",), epoch_durations_ns=(1_000.0,), n=1
        )
        assert r.metric_name == "EDP"


class TestFig18Drivers:
    def test_energy_savings_driver(self, setup):
        from repro.analysis.experiments import fig18a_energy_savings

        r = fig18a_energy_savings(setup, designs=("STALL",), caps=(0.10,))
        assert "STALL" in r.savings[0.10]
        assert "save@10%" in r.render()

    def test_granularity_driver(self, setup):
        from repro.analysis.experiments import fig18b_granularity

        r = fig18b_granularity(setup, designs=("STALL",), granularities=(1, 2))
        assert set(r.ed2p) == {1, 2}
        assert all(v > 0 for g in r.ed2p.values() for v in g.values())


class TestDesignMatrix:
    def test_small_matrix(self, setup):
        m = design_matrix(setup, designs=("STALL", "PCSTALL"))
        assert set(m.runs) == {"comd", "xsbench"}
        assert m.accuracy("PCSTALL") > 0
        assert 0 < m.geomean_ed2p("PCSTALL") < 2.0
        for renderer in (m.render_fig14, m.render_fig15, m.render_fig16):
            assert renderer()

    def test_normalisation_against_baseline(self, setup):
        m = design_matrix(setup, designs=("STALL",))
        v = m.normalized_ed2p("comd", "STALL")
        assert v == pytest.approx(
            m.runs["comd"]["STALL"].ed2p / m.baseline["comd"].ed2p
        )
