"""The fork-and-pre-execute oracle methodology (Section 5.1, Figure 13).

Exhaustively measuring a fine-grain epoch at every combination of
per-domain frequencies is intractable (10^64 paths for 64 domains x 10
states). The paper's trick, reproduced here exactly:

1. *Fork*: snapshot the simulator at the epoch boundary
   (``Gpu.snapshot()``, restored into a scratch GPU before each sample -
   deterministic, so replays are exact).
2. *Pre-execute*: run one sample per frequency state. In sample ``s``,
   domain ``d`` runs at ``grid[(s + stride*d) % len(grid)]`` - the
   frequencies are *shuffled* across domains so that every domain sees
   every frequency once while its neighbours' frequencies vary, washing
   out inter-domain interference bias.
3. *Fit*: each domain now has one (frequency, commits) point per sample;
   a least-squares line through them is the domain's true sensitivity.
4. *Re-execute*: the forks never touch the caller's GPU, which then
   runs the epoch for real at whatever frequencies the policy under
   test picked.

``validation_accuracy`` reproduces the paper's 97.6% check: how close the
pre-executed commit counts are to a re-execution at the same frequencies.
:meth:`OracleSampler.pre_execute` is the program's one fork: the Fig 5
linearity study and the Fig 6-11 phase profiler pre-execute through it
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.sensitivity import LinearFit, LinearSensitivity, fit_linear
from repro.gpu.gpu import EpochResult, Gpu


@dataclass(frozen=True)
class OracleSample:
    """True per-domain behaviour of one upcoming epoch."""

    #: Per domain: list of (frequency, commits) sample points.
    points: Tuple[Tuple[Tuple[float, int], ...], ...]
    #: Per domain: least-squares sensitivity line through the points.
    fits: Tuple[LinearFit, ...]

    @property
    def lines(self) -> List[LinearSensitivity]:
        return [f.model for f in self.fits]

    @property
    def r_squared(self) -> Tuple[float, ...]:
        """Per-domain goodness of the fitted truth lines (telemetry)."""
        return tuple(f.r_squared for f in self.fits)

    #: Frequency matching tolerance for :meth:`commits_at`. The V/f grid
    #: is 100 MHz-spaced (0.1 GHz), so 1 kHz absolute / 1e-9 relative
    #: slack absorbs round-tripping through unit conversion or grid
    #: regeneration without ever bridging two distinct grid points.
    FREQ_ABS_TOL_GHZ = 1e-6
    FREQ_REL_TOL = 1e-9

    @classmethod
    def same_frequency(cls, a_ghz: float, b_ghz: float) -> bool:
        return math.isclose(
            a_ghz, b_ghz, rel_tol=cls.FREQ_REL_TOL, abs_tol=cls.FREQ_ABS_TOL_GHZ
        )

    def commits_at(self, domain: int, f_ghz: float) -> Optional[int]:
        """Exact pre-executed commits of a domain at a sampled frequency."""
        for f, commits in self.points[domain]:
            if self.same_frequency(f, f_ghz):
                return commits
        return None


class OracleSampler:
    """Runs the fork-and-pre-execute sampling for one epoch."""

    def __init__(
        self,
        sim_config: SimConfig,
        shuffle_stride: int = 3,
        n_sample_freqs: Optional[int] = None,
    ) -> None:
        """
        Args:
            shuffle_stride: how frequencies rotate across domains between
                samples (coprime to the sample count for full coverage).
            n_sample_freqs: pre-execute only this many evenly-spaced
                frequencies instead of the whole grid (the fitted line
                still predicts every state). Cuts oracle cost for the
                big sweeps; None = full grid (paper's 10 processes).
        """
        self.config = sim_config
        #: Persistent scratch GPU reused by snapshot-based
        #: pre-execution (one allocation for the sampler's lifetime).
        self._scratch: Optional[Gpu] = None
        #: Number of :meth:`sample` calls (hot-path profiling).
        self.ctr_samples = 0
        full = sim_config.dvfs.frequencies_ghz
        if n_sample_freqs is None or n_sample_freqs >= len(full):
            self.sample_grid: Tuple[float, ...] = tuple(full)
        elif n_sample_freqs < 2:
            raise ValueError("need at least two sample frequencies")
        else:
            step = (len(full) - 1) / (n_sample_freqs - 1)
            idxs = sorted({int(round(i * step)) for i in range(n_sample_freqs)})
            self.sample_grid = tuple(full[i] for i in idxs)
        n = len(self.sample_grid)
        # A stride sharing a factor with n aliases domains d and d + n/g
        # onto the same frequency in every sample (g = the common factor).
        while n > 1 and math.gcd(shuffle_stride, n) != 1:
            shuffle_stride += 1
        self.shuffle_stride = shuffle_stride

    def _sample_freqs(self, sample_idx: int, n_domains: int) -> List[float]:
        grid = self.sample_grid
        n = len(grid)
        return [grid[(sample_idx + self.shuffle_stride * d) % n] for d in range(n_domains)]

    def sample_plan(self, n_domains: int) -> List[List[float]]:
        """Per-sample frequency vectors (one row per pre-execution).

        The shuffled schedule :meth:`sample` pre-executes, exposed so
        external checkers (``repro check``'s oracle-fork differential)
        can replay the exact same plan through an independent fork path.
        """
        return [
            self._sample_freqs(s, n_domains) for s in range(len(self.sample_grid))
        ]

    def pre_execute(
        self,
        gpu: Gpu,
        rows: Sequence[Sequence[float]],
        epoch_ns: Optional[float] = None,
        collect_waves: bool = False,
    ) -> List[EpochResult]:
        """Fork ``gpu`` at its epoch boundary and run the next epoch once
        per row of per-domain frequencies; ``gpu`` itself never moves.

        The boundary is captured once (``Gpu.snapshot``) and restored into
        the sampler's persistent scratch GPU before each row, so a fork
        allocates almost nothing. Pre-execution measures workload
        behaviour, not transition overhead, so each row's frequency
        switch is free. ``collect_waves`` keeps the per-wave records
        (the phase profiler reads them; the oracle needs CU totals only).
        """
        epoch = epoch_ns if epoch_ns is not None else self.config.dvfs.epoch_ns
        snap = gpu.snapshot()
        scratch = self._scratch
        if scratch is None or scratch.config is not snap.config:
            scratch = self._scratch = Gpu(snap.config)
        results = []
        for freqs in rows:
            scratch.restore(snap)
            scratch.set_domain_frequencies(freqs, transition_latency_ns=0.0)
            results.append(scratch.run_epoch(epoch, collect_waves=collect_waves))
        return results

    def sample(self, gpu: Gpu, epoch_ns: Optional[float] = None) -> OracleSample:
        """Pre-execute the upcoming epoch once per frequency state."""
        plan = self.sample_plan(len(gpu.domains))
        return self._fit(gpu, plan, self.pre_execute(gpu, plan, epoch_ns))

    def _fit(
        self, gpu: Gpu, plan: Sequence[Sequence[float]], results: Sequence[EpochResult]
    ) -> OracleSample:
        """The :class:`OracleSample` of the pre-executed ``plan`` rows."""
        self.ctr_samples += 1
        per_domain: List[List[Tuple[float, int]]] = [[] for _ in gpu.domains]
        for freqs, result in zip(plan, results):
            for d, commits in enumerate(gpu.committed_per_domain(result)):
                per_domain[d].append((freqs[d], commits))

        points = tuple(tuple(sorted(pts)) for pts in per_domain)
        return OracleSample(
            points=points,
            fits=tuple(
                fit_linear([f for f, _ in pts], [c for _, c in pts]) for pts in points
            ),
        )

    def validation_accuracy(
        self, gpu: Gpu, chosen_freqs: Sequence[float], epoch_ns: Optional[float] = None
    ) -> Optional[float]:
        """Paper's methodology check (Section 5.1; they report 97.6%).

        Compares pre-executed per-domain commits - taken from the one
        shuffled sample where each domain happened to run at its chosen
        frequency - against a coherent re-execution where *all* domains
        run their chosen frequencies simultaneously. The sample rows and
        the coherent row are pre-executed from one capture.

        Returns None when no domain is scorable (every domain committed
        nothing in the re-execution). Raises ValueError, before
        simulating anything, for a chosen frequency that is not on the
        sample grid: it is never pre-executed, so there is nothing to
        compare it against.
        """
        chosen = list(chosen_freqs)
        if not all(
            any(OracleSample.same_frequency(f, g) for g in self.sample_grid)
            for f in chosen
        ):
            raise ValueError(
                f"chosen frequencies {chosen} are not all on the "
                f"sample grid {list(self.sample_grid)}"
            )
        plan = self.sample_plan(len(gpu.domains))
        *rows, coherent = self.pre_execute(gpu, [*plan, chosen], epoch_ns)
        sample = self._fit(gpu, plan, rows)
        actual = gpu.committed_per_domain(coherent)

        # Every domain runs every sample-grid frequency in one row.
        predicted = [sample.commits_at(d, f) for d, f in enumerate(chosen)]
        accs = [
            max(0.0, 1.0 - abs(p - a) / a) for p, a in zip(predicted, actual) if a > 0
        ]
        return sum(accs) / len(accs) if accs else None


__all__ = ["OracleSampler", "OracleSample"]
