"""TABLE III design registry."""

import pytest

from repro.config import small_config
from repro.core.objectives import EDnPObjective
from repro.core.pc_table import PCTableConfig
from repro.core.predictors import (
    AccuratePCPredictor,
    AccurateReactivePredictor,
    OraclePredictor,
    PCBasedPredictor,
    ReactivePredictor,
    StaticPredictor,
)
from repro.dvfs.designs import DESIGN_NAMES, make_controller


@pytest.fixture
def cfg():
    return small_config(n_cus=2, waves_per_cu=4)


class TestRegistry:
    def test_all_paper_designs_present(self):
        assert DESIGN_NAMES == (
            "STALL", "LEAD", "CRIT", "CRISP", "ACCREAC", "PCSTALL", "ACCPC", "ORACLE",
        )

    def test_every_design_constructs(self, cfg):
        for name in DESIGN_NAMES:
            ctrl = make_controller(name, cfg)
            assert ctrl.predictor is not None

    def test_predictor_types(self, cfg):
        assert isinstance(make_controller("STALL", cfg).predictor, ReactivePredictor)
        assert isinstance(make_controller("ACCREAC", cfg).predictor, AccurateReactivePredictor)
        assert isinstance(make_controller("PCSTALL", cfg).predictor, PCBasedPredictor)
        assert isinstance(make_controller("ACCPC", cfg).predictor, AccuratePCPredictor)
        assert isinstance(make_controller("ORACLE", cfg).predictor, OraclePredictor)

    def test_accpc_is_pc_based(self, cfg):
        assert isinstance(make_controller("ACCPC", cfg).predictor, PCBasedPredictor)

    def test_estimation_model_names(self, cfg):
        for name in ("STALL", "LEAD", "CRIT", "CRISP"):
            assert make_controller(name, cfg).predictor.name == name

    def test_static_design(self, cfg):
        ctrl = make_controller("STATIC@1.3", cfg)
        assert isinstance(ctrl.predictor, StaticPredictor)
        assert ctrl.decide() == [1.3, 1.3]

    def test_unknown_design_rejected(self, cfg):
        with pytest.raises(ValueError):
            make_controller("MAGIC", cfg)

    def test_custom_objective_passed_through(self, cfg):
        obj = EDnPObjective(1)
        ctrl = make_controller("CRISP", cfg, objective=obj)
        assert ctrl.objective is obj

    def test_custom_table_config(self, cfg):
        tbl = PCTableConfig(n_entries=32)
        ctrl = make_controller("PCSTALL", cfg, table_config=tbl)
        assert ctrl.predictor.tables[0].config.n_entries == 32

    def test_table_sharing_granularity(self, cfg):
        ctrl = make_controller("PCSTALL", cfg, cus_per_table=2)
        assert len(ctrl.predictor.tables) == 1

    def test_truth_flags(self, cfg):
        assert not make_controller("PCSTALL", cfg).predictor.needs_elapsed_truth
        assert make_controller("ACCREAC", cfg).predictor.needs_elapsed_truth
        assert make_controller("ACCPC", cfg).predictor.needs_elapsed_truth
        assert make_controller("ORACLE", cfg).predictor.needs_future_truth
