"""Figure 5: instructions-vs-frequency linearity of fine-grain epochs.

Samples unique time epochs of a workload, replays each from the same
snapshot at every frequency on (and slightly beyond) the DVFS grid, and
fits a line per epoch. The paper reports a mean R-squared of 0.82 across
workloads, justifying the linear sensitivity model of Section 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.config import SimConfig
from repro.core.sensitivity import LinearFit, fit_linear
from repro.dvfs.oracle import OracleSampler
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel


@dataclass(frozen=True)
class EpochLinearity:
    """One sampled epoch: commits at each frequency plus its line fit."""

    epoch_index: int
    cu_id: int
    points: Tuple[Tuple[float, int], ...]
    fit: LinearFit

    @property
    def slope(self) -> float:
        return self.fit.model.slope

    @property
    def r_squared(self) -> float:
        return self.fit.r_squared

    @property
    def effective_r_squared(self) -> float:
        """R^2 with flat epochs counted as perfectly linear.

        A memory-bound epoch whose commits barely react to frequency is
        explained *perfectly* by the linear model (slope ~ 0); raw R^2
        would punish it for measurement noise around the flat line.
        An epoch counts as flat when the full-range commit swing is
        below 5% of its mean commits.
        """
        commits = [c for _f, c in self.points]
        mean_c = sum(commits) / len(commits) if commits else 0.0
        f_lo, f_hi = self.points[0][0], self.points[-1][0]
        swing = abs(self.slope) * (f_hi - f_lo)
        if mean_c > 0 and swing < 0.05 * mean_c:
            return 1.0
        return self.fit.r_squared


@dataclass(frozen=True)
class LinearityResult:
    """All sampled epochs of a linearity study."""

    workload: str
    epochs: Tuple[EpochLinearity, ...]

    @property
    def mean_r_squared(self) -> float:
        vals = [e.effective_r_squared for e in self.epochs]
        return sum(vals) / len(vals) if vals else 0.0


def linearity_study(
    kernels: Sequence[Kernel],
    config: SimConfig,
    sample_epochs: Sequence[int] = (2, 5, 9, 14, 20),
    cu_id: int = 0,
    extra_freqs_ghz: Sequence[float] = (),
    max_epochs: int = 64,
) -> LinearityResult:
    """Replay selected epochs at every frequency, uniform across domains.

    Unlike the shuffled oracle, Figure 5 plots a *single CU's* commits
    against its own frequency, so every domain runs the same frequency
    in each replay.
    """
    gpu = Gpu(config.gpu, initial_freq_ghz=config.dvfs.reference_freq_ghz)
    pending = list(kernels)
    gpu.load_kernel(pending.pop(0))
    epoch_ns = config.dvfs.epoch_ns
    sampler = OracleSampler(config)
    freqs = sorted(set(config.dvfs.frequencies_ghz) | set(extra_freqs_ghz))
    uniform = [[f] * len(gpu.domains) for f in freqs]
    wanted = set(sample_epochs)
    out: List[EpochLinearity] = []

    for idx in range(max_epochs):
        if gpu.done:
            if not pending:
                break
            gpu.load_kernel(pending.pop(0))
        if idx in wanted:
            results = sampler.pre_execute(gpu, uniform, epoch_ns)
            points = [(f, r.cu_stats[cu_id].committed) for f, r in zip(freqs, results)]
            fit = fit_linear([p[0] for p in points], [p[1] for p in points])
            out.append(EpochLinearity(idx, cu_id, tuple(points), fit))
        gpu.run_epoch(epoch_ns)

    name = kernels[0].name if kernels else "unknown"
    return LinearityResult(name, tuple(out))


__all__ = ["EpochLinearity", "LinearityResult", "linearity_study"]
