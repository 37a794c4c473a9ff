"""Shared fixtures: tiny platforms and kernels that run in milliseconds."""

from __future__ import annotations

import logging
from typing import List

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


@pytest.fixture
def broker_log():
    """The messages the sweep broker logs during the test, INFO and up."""
    lines: List[str] = []

    class Collect(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            lines.append(record.getMessage())

    logger = logging.getLogger("repro.distributed")
    handler = Collect()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
