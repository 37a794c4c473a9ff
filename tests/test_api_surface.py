"""Public API surface: names users import must exist and stay stable."""

import importlib

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_quickstart_names(self):
        from repro import (  # noqa: F401
            DESIGN_NAMES,
            DvfsSimulation,
            OracleSampler,
            make_controller,
            paper_config,
            small_config,
        )

    def test_all_exports_resolve(self):
        import repro

        names = dir(repro)
        for name in repro.__all__:
            assert name in names, name
            assert getattr(repro, name, None) is not None, name

    def test_subpackages_are_attributes(self):
        import repro

        assert repro.gpu.Gpu is importlib.import_module("repro.gpu.gpu").Gpu
        assert repro.runtime.wire is importlib.import_module("repro.runtime.wire")
        with pytest.raises(AttributeError):
            repro.no_such_module


@pytest.mark.parametrize(
    "module",
    [
        "repro.config",
        "repro.cli",
        "repro.gpu",
        "repro.gpu.isa",
        "repro.gpu.kernel",
        "repro.gpu.wavefront",
        "repro.gpu.memory",
        "repro.gpu.cu",
        "repro.gpu.gpu",
        "repro.gpu.clock",
        "repro.power",
        "repro.power.model",
        "repro.power.energy",
        "repro.core",
        "repro.core.sensitivity",
        "repro.core.estimators",
        "repro.core.pc_table",
        "repro.core.predictors",
        "repro.core.objectives",
        "repro.core.controller",
        "repro.core.hardware",
        "repro.dvfs",
        "repro.dvfs.oracle",
        "repro.dvfs.simulation",
        "repro.dvfs.designs",
        "repro.dvfs.hierarchy",
        "repro.dvfs.colocation",
        "repro.workloads",
        "repro.workloads.generator",
        "repro.workloads.suite",
        "repro.analysis",
        "repro.analysis.phases",
        "repro.analysis.linearity",
        "repro.analysis.experiments",
        "repro.analysis.trace_io",
        "repro.analysis.report",
        "repro.runtime",
        "repro.runtime.executor",
        "repro.runtime.cache",
        "repro.runtime.distributed",
        "repro.runtime.faults",
        "repro.runtime.progress",
        "repro.runtime.profiling",
        "repro.runtime.wire",
        "repro.learn",
        "repro.learn.features",
        "repro.learn.dataset",
        "repro.learn.models",
        "repro.learn.registry",
        "repro.learn.evaluate",
        "repro.obs",
        "repro.obs.trace",
        "repro.obs.drift",
        "repro.obs.prom",
        "repro.obs.log",
        "repro.obs.monitor",
        "repro.service",
        "repro.telemetry",
        "repro.validation",
    ],
)
def test_module_all_exports_resolve(module):
    mod = importlib.import_module(module)
    names = dir(mod)  # read before the getattr below resolves anything
    for name in getattr(mod, "__all__", []):
        assert name in names, f"{module}.{name} missing from dir()"
        assert getattr(mod, name, None) is not None, f"{module}.{name}"


class TestSubpackageSurfaces:
    def test_core_has_paper_vocabulary(self):
        import repro.core as core

        for name in ("LinearSensitivity", "PCTable", "DvfsController",
                     "EDnPObjective", "storage_overhead_bytes"):
            assert hasattr(core, name)

    def test_dvfs_has_designs_and_oracle(self):
        import repro.dvfs as dvfs

        assert "PCSTALL" in dvfs.DESIGN_NAMES
        assert "HISTORY" in dvfs.EXTENSION_DESIGNS

    def test_workloads_suite_size(self):
        import repro.workloads as w

        assert len(w.WORKLOADS) == 16
