"""Executable specifications the property-based suites drive.

Pure reference models and predicates that ``test_validation.py``
drives with random inputs:

* :class:`PCTableModel` - a dict-backed executable spec of
  :class:`~repro.core.pc_table.PCTable`: same indexing, aliasing,
  eviction and hit-accounting semantics, written for obviousness
  instead of speed. A property test drives both with the same random
  PC stream and requires identical lookups/hits/updates/evictions and
  identical returned lines.
* :func:`check_sensitivity_bounds` - the
  :class:`~repro.core.sensitivity.LinearSensitivity` prediction
  contract: non-negative everywhere, monotone with the slope's sign.
* :func:`epoch_result_round_trips` /
  :func:`sensitivity_round_trips` - wire-codec round-trip predicates
  (JSON-encode, decode, re-encode; every float must survive
  bit-for-bit), shared by the codec property suites.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.core.pc_table import PCTableConfig
from repro.core.sensitivity import LinearSensitivity


class PCTableModel:
    """Dict-backed reference model of the direct-mapped PC table.

    Capacity misses, aliasing and tagless reads are modelled explicitly:
    the backing dict is keyed by *table index* (so two PCs that alias
    collide exactly as in the real table) while the stored pre-wrap key
    decides hit accounting and blending, mirroring
    :meth:`repro.core.pc_table.PCTable.update` / ``lookup``.
    """

    def __init__(self, config: PCTableConfig = PCTableConfig()) -> None:
        self.config = config
        #: index -> (i0, slope, pc_key)
        self._entries: Dict[int, Tuple[float, float, int]] = {}
        self.lookups = 0
        self.hits = 0
        self.updates = 0
        self.evictions = 0

    def _index(self, pc_idx: int) -> int:
        byte_pc = pc_idx * self.config.instruction_bytes
        return (byte_pc >> self.config.offset_bits) % self.config.n_entries

    def _key(self, pc_idx: int) -> int:
        byte_pc = pc_idx * self.config.instruction_bytes
        return byte_pc >> self.config.offset_bits

    def update(self, pc_idx: int, line: LinearSensitivity) -> None:
        idx = self._index(pc_idx)
        key = self._key(pc_idx)
        w = self.config.update_weight
        existing = self._entries.get(idx)
        if existing is not None and existing[2] != key:
            self.evictions += 1
        if existing is not None and existing[2] == key and w < 1.0:
            i0 = (1 - w) * existing[0] + w * line.i0
            slope = (1 - w) * existing[1] + w * line.slope
        else:
            i0, slope = line.i0, line.slope
        self._entries[idx] = (i0, slope, key)
        self.updates += 1

    def lookup(self, pc_idx: int) -> Optional[LinearSensitivity]:
        self.lookups += 1
        entry = self._entries.get(self._index(pc_idx))
        if entry is None:
            return None
        if entry[2] == self._key(pc_idx):
            self.hits += 1
        return LinearSensitivity(entry[0], entry[1])

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def occupancy(self) -> float:
        return len(self._entries) / self.config.n_entries


# ----------------------------------------------------------------------
# LinearSensitivity bounds


def check_sensitivity_bounds(
    line: LinearSensitivity, freqs_ghz: List[float]
) -> List[str]:
    """Violated clauses of the prediction contract, as messages.

    ``predict`` promises a commit count: it must be non-negative at
    every frequency, and across an ascending frequency sweep it must be
    monotone in the direction of the slope (the floor at zero may
    flatten stretches but can never invert the trend).
    """
    problems: List[str] = []
    preds = [line.predict(f) for f in sorted(freqs_ghz)]
    for f, p in zip(sorted(freqs_ghz), preds):
        if p < 0.0:
            problems.append(f"predict({f!r}) = {p!r} < 0")
    for (pa, pb) in zip(preds, preds[1:]):
        if line.slope >= 0 and pb < pa:
            problems.append(
                f"non-monotone: predict fell from {pa!r} to {pb!r} "
                f"with slope {line.slope!r} >= 0"
            )
        if line.slope <= 0 and pb > pa:
            problems.append(
                f"non-monotone: predict rose from {pa!r} to {pb!r} "
                f"with slope {line.slope!r} <= 0"
            )
    return problems


# ----------------------------------------------------------------------
# Wire-codec round-trips


def sensitivity_round_trips(line: LinearSensitivity) -> bool:
    """i0/slope survive JSON encode -> decode bit-for-bit (the truth
    lines the observation stream carries)."""
    wire = json.loads(json.dumps([line.i0, line.slope]))
    back = LinearSensitivity(wire[0], wire[1])
    return back == line


def epoch_result_round_trips(result) -> bool:
    """An :class:`~repro.gpu.gpu.EpochResult` survives the wire exactly.

    Encodes with :func:`repro.telemetry.schema.epoch_result_to_wire`
    (CU stats as ``capture()`` lists, each wave record as one flat list),
    routes the JSON text through ``json`` (the same serialisation the
    decision service and observation stream use), and decodes with
    :func:`repro.service.protocol.epoch_result_from_wire`. The decoded
    result must equal the original, and re-encode to byte-identical
    JSON (which also tells ``-0.0`` from ``0.0``).
    """
    from repro.service.protocol import epoch_result_from_wire
    from repro.telemetry.schema import epoch_result_to_wire

    wire = epoch_result_to_wire(result)
    text = json.dumps(wire, sort_keys=True)
    back = epoch_result_from_wire(json.loads(text))
    return back == result and json.dumps(epoch_result_to_wire(back), sort_keys=True) == text

