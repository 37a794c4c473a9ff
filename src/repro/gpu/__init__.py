"""Cycle-approximate GPU timing-simulator substrate.

This subpackage provides the execution substrate the DVFS study runs on:
an AMD GCN/Vega-flavoured GPU with compute units (CUs) that schedule many
in-order wavefronts ("oldest-first"), ``s_waitcnt``-style memory counters,
and a shared L2/DRAM memory subsystem in its own fixed-frequency domain.

It replaces the gem5 GCN3 model used by the paper; see DESIGN.md for the
substitution argument.
"""

from repro.gpu.isa import Instruction, InstructionKind, Program, waitcnt, valu, salu, load, store, barrier, branch
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.gpu.wavefront import Wavefront, WavefrontStats
from repro.gpu.memory import MemorySubsystem
from repro.gpu.cu import ComputeUnit
from repro.gpu.clock import ClockDomain, DomainMap
from repro.gpu.gpu import Gpu, EpochResult

__all__ = [
    "Instruction",
    "InstructionKind",
    "Program",
    "waitcnt",
    "valu",
    "salu",
    "load",
    "store",
    "barrier",
    "branch",
    "Kernel",
    "WorkgroupGeometry",
    "Wavefront",
    "WavefrontStats",
    "MemorySubsystem",
    "ComputeUnit",
    "ClockDomain",
    "DomainMap",
    "Gpu",
    "EpochResult",
]
