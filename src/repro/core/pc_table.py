"""The PC-indexed sensitivity table (Section 4.4, Figure 12).

A small direct-mapped table indexed by wavefront PC. Entries hold the
sensitivity line of the time epoch that *started* at that PC, written by
the update mechanism after each epoch and read by the lookup mechanism
just before the next epoch.

The paper's tuning (Figure 11b and the hit-ratio study):

* 4-bit PC offset -> ~4 instructions share an entry,
* 128 entries -> covers 512 instructions, enough for the loop bodies of
  typical GPU kernels with a 95%+ hit ratio.

A table may be private to a CU or shared by many (the Figure 10 study
shows sharing costs little accuracy); sharing is expressed by simply
routing several CUs' updates/lookups to the same instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.sensitivity import LinearSensitivity


@dataclass(frozen=True)
class PCTableConfig:
    """Geometry of the PC-indexed table."""

    n_entries: int = 128
    offset_bits: int = 4
    instruction_bytes: int = 4
    #: Exponential blending weight for updates; 1.0 = last-value
    #: (the paper's behaviour), lower values smooth noisy estimates.
    update_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.n_entries < 1:
            raise ValueError("table needs at least one entry")
        if self.offset_bits < 0:
            raise ValueError("offset_bits must be non-negative")
        if not 0.0 < self.update_weight <= 1.0:
            raise ValueError("update_weight must be in (0, 1]")

    @property
    def instructions_per_entry(self) -> int:
        return max(1, (1 << self.offset_bits) // self.instruction_bytes)

    @property
    def covered_instructions(self) -> int:
        return self.n_entries * self.instructions_per_entry


class PCTable:
    """Direct-mapped PC-indexed sensitivity store.

    Each entry keeps the line it stored (None = invalid), so a lookup
    hands back that line instead of building one.
    """

    def __init__(self, config: PCTableConfig = PCTableConfig()) -> None:
        self.config = config
        self._lines: List[Optional[LinearSensitivity]] = [None] * config.n_entries
        #: Pre-wrap PC key of each entry's writer. The hardware table is
        #: tagless (the paper stores index bits only) and uses aliased
        #: entries blindly; the key exists purely for the simulator's
        #: hit-ratio accounting, which is how the paper sized the table
        #: (128 entries -> 95%+ hits).
        self._keys: List[int] = [-1] * config.n_entries
        # The config's geometry, read per wave per epoch: an instruction
        # index's key is ``(pc_idx * bytes) >> offset_bits`` (all PC bits
        # above the offset), and its table index is the key mod size.
        self._bytes = config.instruction_bytes
        self._offset_bits = config.offset_bits
        self._n = config.n_entries
        self.lookups = 0
        self.hits = 0
        self.updates = 0
        #: Valid entries overwritten by a *different* (aliasing) PC - the
        #: direct-mapped table's capacity/conflict pressure signal.
        self.evictions = 0

    def index_of(self, pc_bytes: int) -> int:
        """Table index for a byte PC: drop offset bits, wrap modulo size."""
        return (pc_bytes >> self.config.offset_bits) % self.config.n_entries

    # ------------------------------------------------------------------

    def update(self, pc_idx: int, line: LinearSensitivity) -> None:
        """Store the estimate of the epoch that started at ``pc_idx``.

        Update happens off the critical path (after the epoch); with
        ``update_weight == 1`` the entry is simply overwritten
        (last-value semantics, as in the paper), otherwise a same-PC
        entry stores the blend of its line and ``line``.
        """
        key = (pc_idx * self._bytes) >> self._offset_bits
        index = key % self._n
        old = self._lines[index]
        if old is not None:
            if self._keys[index] != key:
                self.evictions += 1
            else:
                w = self.config.update_weight
                if w < 1.0:
                    line = LinearSensitivity(
                        (1 - w) * old.i0 + w * line.i0,
                        (1 - w) * old.slope + w * line.slope,
                    )
        self._lines[index] = line
        self._keys[index] = key
        self.updates += 1

    def lookup(self, pc_idx: int) -> Optional[LinearSensitivity]:
        """Predicted sensitivity for an epoch starting at ``pc_idx``.

        Returns None on a miss (invalid entry); callers fall back to a
        reactive estimate for that wavefront. A valid entry written by a
        *different* (aliasing) PC is still returned - the hardware table
        is tagless - but does not count as a hit, matching how the paper
        sized the table by hit ratio.
        """
        self.lookups += 1
        key = (pc_idx * self._bytes) >> self._offset_bits
        index = key % self._n
        line = self._lines[index]
        if line is not None and self._keys[index] == key:
            self.hits += 1
        return line

    # ------------------------------------------------------------------

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def occupancy(self) -> float:
        valid = sum(1 for line in self._lines if line is not None)
        return valid / len(self._lines)


__all__ = ["PCTable", "PCTableConfig"]
