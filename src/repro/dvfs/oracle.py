"""The fork-and-pre-execute oracle methodology (Section 5.1, Figure 13).

Exhaustively measuring a fine-grain epoch at every combination of
per-domain frequencies is intractable (10^64 paths for 64 domains x 10
states). The paper's trick, reproduced here exactly:

1. *Fork*: snapshot the simulator at the epoch boundary
   (``Gpu.clone()`` - deterministic, so replays are exact).
2. *Pre-execute*: run one sample per frequency state. In sample ``s``,
   domain ``d`` runs at ``grid[(s + stride*d) % len(grid)]`` - the
   frequencies are *shuffled* across domains so that every domain sees
   every frequency once while its neighbours' frequencies vary, washing
   out inter-domain interference bias.
3. *Fit*: each domain now has one (frequency, commits) point per sample;
   a least-squares line through them is the domain's true sensitivity.
4. *Re-execute*: the caller rolls back to the snapshot and runs the
   epoch for real at whatever frequencies the policy under test picked.

``validation_accuracy`` reproduces the paper's 97.6% check: how close the
pre-executed commit counts are to a re-execution at the same frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.sensitivity import LinearFit, LinearSensitivity, fit_linear
from repro.gpu.gpu import Gpu


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

    def commits_at(self, domain: int, f_ghz: float) -> Optional[int]:
        """Exact pre-executed commits of a domain at a sampled frequency."""
        for f, commits in self.points[domain]:
            if math.isclose(
                f, f_ghz, rel_tol=self.FREQ_REL_TOL, abs_tol=self.FREQ_ABS_TOL_GHZ
            ):
                return commits
        return None


def _pre_execute_sample(child: Gpu, freqs: List[float], epoch_ns: float) -> List[int]:
    """Run one pre-execution sample on a fork of the epoch boundary.

    Pre-execution measures workload behaviour, not transition overhead,
    so the frequency switch is free here.
    """
    child.set_domain_frequencies(freqs, transition_latency_ns=0.0)
    # Only the domain commit totals are consumed, so skip the per-wave
    # record allocation in every forked pre-execution.
    result = child.run_epoch(epoch_ns, collect_waves=False)
    return child.committed_per_domain(result)


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
        #: Work done inside discarded pre-execution forks (reference
        #: engine's clone-per-sample path), absorbed before the clone is
        #: dropped so both engines account their oracle-side work.
        self.ctr_fork_cycles = 0
        self.ctr_fork_scans = 0
        self.ctr_fork_batched = 0
        self.ctr_fork_completions = 0
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

    def _pre_execute_all(
        self, gpu: Gpu, epoch: float, all_freqs: List[List[float]]
    ) -> List[List[int]]:
        """Per-sample committed-per-domain counts, one row per sample.

        Instead of deep-cloning the GPU for every sample, the epoch
        boundary is captured once (``Gpu.snapshot``) and replayed into a
        persistent scratch GPU per sample - identical results, a tiny
        fraction of the allocation. The reference engine keeps the
        original clone-per-sample loop so equivalence tests exercise the
        pre-change behaviour end to end.
        """
        if gpu.config.engine == "reference":  # keep the pre-change path
            rows = []
            for freqs in all_freqs:
                fork = gpu.clone()
                rows.append(_pre_execute_sample(fork, freqs, epoch))
                self._absorb_fork(fork)
            return rows
        snap = gpu.snapshot()
        scratch = self._scratch
        if scratch is None or scratch.config is not snap.config:
            if scratch is not None:  # keep the retired scratch's work visible
                self._absorb_fork(scratch)
            scratch = self._scratch = Gpu(snap.config)
        rows = []
        for freqs in all_freqs:
            scratch.restore(snap)
            rows.append(_pre_execute_sample(scratch, freqs, epoch))
        return rows

    def _absorb_fork(self, fork: Gpu) -> None:
        """Keep a discarded fork's hot-path work counters."""
        for cu in fork.cus:
            self.ctr_fork_cycles += cu.ctr_cycles
            self.ctr_fork_scans += cu.ctr_waves_scanned
            self.ctr_fork_batched += cu.ctr_batched
            self.ctr_fork_completions += cu.ctr_completions

    def sample(self, gpu: Gpu, epoch_ns: Optional[float] = None) -> OracleSample:
        """Pre-execute the upcoming epoch once per frequency state."""
        self.ctr_samples += 1
        epoch = epoch_ns if epoch_ns is not None else self.config.dvfs.epoch_ns
        grid = self.sample_grid
        n_domains = len(gpu.domains)
        per_domain: List[List[Tuple[float, int]]] = [[] for _ in range(n_domains)]

        all_freqs = [self._sample_freqs(s, n_domains) for s in range(len(grid))]
        for freqs, commits in zip(all_freqs, self._pre_execute_all(gpu, epoch, all_freqs)):
            for d in range(n_domains):
                per_domain[d].append((freqs[d], commits[d]))

        fits = []
        for d in range(n_domains):
            pts = sorted(per_domain[d])
            fits.append(fit_linear([p[0] for p in pts], [p[1] for p in pts]))
        return OracleSample(
            points=tuple(tuple(sorted(p)) for p in per_domain),
            fits=tuple(fits),
        )

    def validation_accuracy(
        self, gpu: Gpu, chosen_freqs: Sequence[float], epoch_ns: Optional[float] = None
    ) -> Optional[float]:
        """Paper's methodology check (Section 5.1; they report 97.6%).

        Compares pre-executed per-domain commits - taken from the one
        shuffled sample where each domain happened to run at its chosen
        frequency - against a coherent re-execution where *all* domains
        run their chosen frequencies simultaneously.

        Returns None when no domain is scorable (every domain committed
        nothing in the re-execution). Raises ValueError for a chosen
        frequency that is not on the sample grid: it is never
        pre-executed, so there is nothing to compare it against.
        """
        epoch = epoch_ns if epoch_ns is not None else self.config.dvfs.epoch_ns
        sample = self.sample(gpu, epoch)
        replay = gpu.clone()
        replay.set_domain_frequencies(list(chosen_freqs), transition_latency_ns=0.0)
        result = replay.run_epoch(epoch)
        actual = replay.committed_per_domain(result)

        predicted = [sample.commits_at(d, f) for d, f in enumerate(chosen_freqs)]
        if None in predicted:
            raise ValueError(
                f"chosen frequencies {list(chosen_freqs)} are not all on the "
                f"sample grid {list(self.sample_grid)}"
            )
        accs = [
            max(0.0, 1.0 - abs(p - a) / a) for p, a in zip(predicted, actual) if a > 0
        ]
        return sum(accs) / len(accs) if accs else None


__all__ = ["OracleSampler", "OracleSample"]
