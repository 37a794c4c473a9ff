"""Shared memory subsystem: banked L2, DRAM channels, contention, thrash.

The memory subsystem lives in a fixed-frequency V/f domain (1.6 GHz in the
paper, Section 5), so every latency here is expressed in nanoseconds and
is *independent of CU frequency* - this frequency-independence is exactly
what creates frequency-insensitive ("memory-bound") phases.

Contention is modelled with per-bank/per-channel ``busy_until`` service
queues: a request arriving while its bank is busy waits for the backlog.
Because CUs from every V/f domain share these queues, the performance of
one domain depends on the frequencies of the others - the interference
effect that the paper's fork-and-shuffle oracle methodology must cope with
(Section 5.1).

A simple thrash model degrades the effective L2 hit rate when the
aggregate request rate exceeds a threshold, reproducing the second-order
effect reported for ``FwdSoft`` (Section 6.2): running many CUs faster can
*hurt* performance by thrashing the L2.
"""

from __future__ import annotations

from typing import List

from repro.config import MemoryConfig

_PHI = 0.6180339887498949


class MemorySubsystem:
    """Banked L2 + DRAM with deterministic contention modelling.

    State is intentionally small (bank/channel ``busy_until`` arrays plus
    a few counters) so oracle snapshots are cheap.
    """

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.bank_busy_until: List[float] = [0.0] * config.n_l2_banks
        self.channel_busy_until: List[float] = [0.0] * config.n_dram_channels
        self.request_counter = 0
        self.thrash_counter = 0
        # Exponential moving average of the aggregate request rate
        # (requests per ns), used by the thrash model.
        self.rate_ema = 0.0
        self.last_request_ns = 0.0

    # ------------------------------------------------------------------

    def thrash_degradation(self) -> float:
        """Fraction of would-be L2 hits converted to misses right now."""
        cfg = self.config
        if self.rate_ema <= cfg.l2_thrash_rate_per_ns:
            return 0.0
        excess = (self.rate_ema - cfg.l2_thrash_rate_per_ns) / cfg.l2_thrash_rate_per_ns
        return min(1.0, excess) * cfg.l2_thrash_max_degradation

    def request(self, now: float, l2_hit: bool, bank_key: int = 0) -> float:
        """Service an L1 miss arriving at the L2 at time ``now`` (ns).

        Both engines call it once per L1 miss, and nothing else computes
        a miss's completion.

        Args:
            now: issue time at the CU.
            l2_hit: whether the access would hit in L2 absent thrashing.
            bank_key: address-derived key selecting the L2 bank. Must be
                a pure function of the access (not of arrival order), so
                that one domain's frequency cannot re-map another
                domain's bank conflicts.

        Returns:
            The completion time (ns) of the request at the CU.
        """
        cfg = self.config
        self.request_counter += 1
        # Exponential moving average of the aggregate request rate.
        gap = now - self.last_request_ns
        self.last_request_ns = now
        if gap < 0:
            # Requests from differently-clocked CUs are processed in
            # near-time order; small reorderings are treated as
            # simultaneous arrivals.
            gap = 0.0
        inst_rate = 1.0 / (gap + 0.5)  # +0.5 ns guards the singularity
        alpha = 0.05
        rate = (1 - alpha) * self.rate_ema + alpha * inst_rate
        self.rate_ema = rate

        if l2_hit and rate > cfg.l2_thrash_rate_per_ns:
            # A low-discrepancy draw against the current degradation.
            degradation = self.thrash_degradation()
            if degradation > 0.0:
                self.thrash_counter += 1
                if (self.thrash_counter * _PHI) % 1.0 < degradation:
                    l2_hit = False

        bank = (bank_key * 2654435761) % cfg.n_l2_banks
        arrive = now + cfg.l2_interconnect_ns
        busy = self.bank_busy_until[bank]
        start = busy if busy > arrive else arrive
        self.bank_busy_until[bank] = start + cfg.l2_service_ns
        if l2_hit:
            done = start + cfg.l2_service_ns + cfg.l2_hit_extra_ns
            return done + cfg.l2_interconnect_ns

        channel = bank % cfg.n_dram_channels
        d_arrive = start + cfg.l2_service_ns
        busy = self.channel_busy_until[channel]
        d_start = busy if busy > d_arrive else d_arrive
        self.channel_busy_until[channel] = d_start + cfg.dram_service_ns
        done = d_start + cfg.dram_service_ns + cfg.dram_extra_ns
        return done + cfg.l2_interconnect_ns

    # ------------------------------------------------------------------

    def capture(self) -> tuple:
        """Flat-tuple snapshot (allocation-free restore, see ``Gpu.snapshot``)."""
        return (
            tuple(self.bank_busy_until),
            tuple(self.channel_busy_until),
            self.request_counter,
            self.thrash_counter,
            self.rate_ema,
            self.last_request_ns,
        )

    def restore_capture(self, cap: tuple) -> None:
        """Overwrite state in place from a :meth:`capture` tuple."""
        (
            banks,
            channels,
            self.request_counter,
            self.thrash_counter,
            self.rate_ema,
            self.last_request_ns,
        ) = cap
        self.bank_busy_until[:] = banks
        self.channel_busy_until[:] = channels

    def capture_nbytes(self) -> int:
        """Rough payload size of :meth:`capture` (for the profiler)."""
        return 8 * (4 + len(self.bank_busy_until) + len(self.channel_busy_until))


__all__ = ["MemorySubsystem"]
