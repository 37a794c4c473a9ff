"""Benchmark harness helpers (import side of benchmarks/conftest.py).

Every benchmark regenerates one paper artifact, prints the rows/series
the paper reports, and archives them under ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

from repro.analysis.experiments import ExperimentSetup

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Print an artifact and archive it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


_MATRIX_CACHE = {}


def get_design_matrix(setup: ExperimentSetup, designs):
    """Design-matrix runs shared by the fig 14/15/16 benchmarks.

    The cache key covers everything that feeds the simulation - notably
    the full platform config and epoch/oracle settings, not just the
    workload list and scale, so two setups differing only in (say)
    ``max_epochs`` or DVFS grid can never alias to the same entry.
    """
    from repro.analysis.experiments import design_matrix
    from repro.runtime.cache import config_hash

    key = config_hash({
        "config": setup.config,
        "workloads": tuple(setup.workload_list()),
        "scale": setup.scale,
        "max_epochs": setup.max_epochs,
        "oracle_sample_freqs": setup.oracle_sample_freqs,
        "designs": tuple(designs),
    })
    if key not in _MATRIX_CACHE:
        _MATRIX_CACHE[key] = design_matrix(setup, designs=designs)
    return _MATRIX_CACHE[key]
