"""Shared fixtures: tiny platforms and kernels that run in milliseconds."""

from __future__ import annotations

import logging
from typing import Iterator, List

import pytest

from repro.config import DvfsConfig, GpuConfig, MemoryConfig, SimConfig
from repro.gpu.kernel import Kernel, WorkgroupGeometry

from helpers import make_loop_program


@pytest.fixture
def tiny_config() -> SimConfig:
    """2 CUs x 4 waves - smallest interesting platform."""
    return SimConfig(
        gpu=GpuConfig(
            n_cus=2,
            waves_per_cu=4,
            memory=MemoryConfig(n_l2_banks=2),
        ),
        dvfs=DvfsConfig(epoch_ns=1000.0),
    )


@pytest.fixture
def quad_config() -> SimConfig:
    """4 CUs x 8 waves - the standard test platform."""
    return SimConfig(
        gpu=GpuConfig(
            n_cus=4,
            waves_per_cu=8,
            memory=MemoryConfig(n_l2_banks=4),
        ),
        dvfs=DvfsConfig(epoch_ns=1000.0),
    )


@pytest.fixture
def loop_program():
    return make_loop_program()


@pytest.fixture
def loop_kernel(loop_program) -> Kernel:
    return Kernel.homogeneous(loop_program, WorkgroupGeometry(4, 2))


def _collect_log(name: str) -> Iterator[List[logging.LogRecord]]:
    """The records logger ``name`` emits during a test, INFO and up.

    A handler on the logger itself: the ``repro`` logger stops
    propagating once ``configure_logging`` has run, so ``caplog`` can
    miss its records.
    """
    records: List[logging.LogRecord] = []

    class Collect(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(record)

    logger = logging.getLogger(name)
    handler = Collect()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@pytest.fixture
def sweep_log():
    """The records a sweep's instrumentation logs during the test."""
    yield from _collect_log("repro.sweep")
