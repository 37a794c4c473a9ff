"""Zero-dependency hot-path work counters for the simulation engine.

The hot objects count the work they do (`plain int` attributes, bumped
on the hot path, never read by the timing model) and this module
collects and merges those counters. They are exact work counts: a
deterministic run reads the same counts on every host, so tests and
CI's bench-smoke job pin them, and a change that moves one moved the
work itself. Time is measured elsewhere: ``benchmarks/perf`` and CI's
perf-ab job time end-to-end runs in reference seconds, against the
parent commit.

* ``cycles``                 - scheduler steps simulated across all CUs.
* ``waves_scanned``          - wavefront readiness examinations. The
  reference engine examines every resident wave each cycle (issue scan
  plus the ``_next_wakeup`` scan); the event engine only pops waves that
  can actually issue, and examines at least 3x fewer.
* ``batched_instructions``   - instructions retired through the
  single-wave straight-line batch path (no per-cycle rescan at all).
* ``completions_delivered``  - memory completions delivered to waves.
* ``snapshots`` / ``snapshot_bytes``   - ``Gpu.snapshot()`` traffic (one
  per oracle fork).
* ``restores``               - snapshot replays into the scratch GPU.
* ``oracle_samples``         - fork-and-pre-execute rounds.
* ``oracle_cycles``          - scheduler steps spent inside pre-execution.

``RunResult.hotpath`` carries the collected dict out of a simulation;
``SweepInstrumentation.hotpath_totals`` sums it across a sweep's cells
with :meth:`HotPathCounters.merge`; ``repro run
--json FILE`` writes it for one workload x design (``--engine
reference`` runs the rescan loop for comparison). For a real profile,
run the CLI under ``python -m cProfile -o FILE -m repro ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping


@dataclass
class HotPathCounters:
    """A mergeable bundle of hot-path event counts."""

    cycles: int = 0
    waves_scanned: int = 0
    batched_instructions: int = 0
    completions_delivered: int = 0
    snapshots: int = 0
    snapshot_bytes: int = 0
    restores: int = 0
    oracle_samples: int = 0
    oracle_cycles: int = 0

    def merge(self, other: Mapping[str, int]) -> "HotPathCounters":
        """Add another counter mapping into this one (in place)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + int(other.get(f.name, 0)))
        return self

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def collect_gpu(gpu) -> HotPathCounters:
    """Harvest the counters of one :class:`~repro.gpu.gpu.Gpu`."""
    out = HotPathCounters(
        snapshots=gpu.ctr_snapshots,
        snapshot_bytes=gpu.ctr_snapshot_bytes,
        restores=gpu.ctr_restores,
    )
    for cu in gpu.cus:
        out.cycles += cu.ctr_cycles
        out.waves_scanned += cu.ctr_waves_scanned
        out.batched_instructions += cu.ctr_batched
        out.completions_delivered += cu.ctr_completions
    return out


def collect_hotpath(gpu, sampler=None) -> Dict[str, int]:
    """Harvest main-GPU counters plus the oracle's scratch-side work.

    ``sampler`` is an :class:`~repro.dvfs.oracle.OracleSampler` (or None
    for designs without oracle truth). The oracle's restores happen on
    its scratch GPU, and its pre-executed cycles are reported separately
    as ``oracle_cycles`` so per-epoch fork cost stays visible.
    """
    out = collect_gpu(gpu)
    if sampler is not None:
        out.oracle_samples = getattr(sampler, "ctr_samples", 0)
        scratch = getattr(sampler, "_scratch", None)
        if scratch is not None:
            side = collect_gpu(scratch)
            out.oracle_cycles += side.cycles
            out.waves_scanned += side.waves_scanned
            out.batched_instructions += side.batched_instructions
            out.completions_delivered += side.completions_delivered
            out.restores += scratch.ctr_restores
    return out.as_dict()


__all__ = [
    "HotPathCounters",
    "collect_gpu",
    "collect_hotpath",
]
