"""Prediction mechanisms: reactive, PC-based, and oracle-fed (TABLE III).

A predictor answers one question before each epoch: *what is the
sensitivity line of each V/f domain for the upcoming epoch?* The paper's
taxonomy (Figure 3):

* **Reactive** (:class:`ReactivePredictor`, :class:`AccurateReactivePredictor`)
  - last-value prediction: whatever the elapsed epoch's estimate was.
* **PC-based** (:class:`PCBasedPredictor`, :class:`AccuratePCPredictor`)
  - look up each resident wavefront's *next PC* in a sensitivity table
  populated by past epochs (PCSTALL when fed by the wavefront STALL
  estimator; ACCPC when fed with oracle-accurate estimates).
* **Oracle** (:class:`OraclePredictor`) - fed the true next-epoch line by
  the fork-and-pre-execute harness; the upper bound.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import GpuConfig
from repro.core.estimators import EstimationModel, WavefrontStallModel
from repro.core.pc_table import PCTable, PCTableConfig
from repro.core.sensitivity import LinearSensitivity, aggregate
from repro.gpu.gpu import EpochResult


@dataclass
class ObserveContext:
    """Everything a predictor may consult when digesting an epoch."""

    config: GpuConfig
    f_lo_ghz: float
    f_hi_ghz: float
    #: True per-domain sensitivity lines of the *elapsed* epoch, when an
    #: oracle sampling pass ran (consumed by the ACC* predictors).
    true_domain_lines: Optional[List[LinearSensitivity]] = None


class Predictor(abc.ABC):
    """Predicts next-epoch sensitivity for every V/f domain."""

    name: str = "abstract"
    #: Whether this design needs oracle sampling of the elapsed epoch.
    needs_elapsed_truth: bool = False
    #: Whether this design needs oracle sampling of the next epoch.
    needs_future_truth: bool = False

    @property
    def needs_truth(self) -> bool:
        """Whether oracle truth feeds this design at all (either flag);
        the simulations pre-execute an epoch for a design only then."""
        return self.needs_elapsed_truth or self.needs_future_truth

    @abc.abstractmethod
    def observe(self, result: EpochResult, ctx: ObserveContext) -> None:
        """Digest the elapsed epoch."""

    @abc.abstractmethod
    def predict_domains(self) -> List[Optional[LinearSensitivity]]:
        """Sensitivity line per domain for the next epoch (None = no
        prediction available yet; the controller holds frequency)."""


def _domain_cu_ids(config: GpuConfig) -> List[List[int]]:
    per = config.cus_per_domain
    return [list(range(d * per, (d + 1) * per)) for d in range(config.n_domains)]


class StaticPredictor(Predictor):
    """No prediction: the controller never moves off its frequency."""

    name = "STATIC"

    def __init__(self, n_domains: int) -> None:
        self._n = n_domains

    def observe(self, result: EpochResult, ctx: ObserveContext) -> None:
        pass

    def predict_domains(self) -> List[Optional[LinearSensitivity]]:
        return [None] * self._n


class ReactivePredictor(Predictor):
    """Last-value prediction from a counter-based estimation model."""

    def __init__(self, model: EstimationModel, config: GpuConfig) -> None:
        self.model = model
        self.name = model.name
        self.config = config
        self._last: List[Optional[LinearSensitivity]] = [None] * config.n_domains

    def observe(self, result: EpochResult, ctx: ObserveContext) -> None:
        for d, cu_ids in enumerate(_domain_cu_ids(self.config)):
            f = result.frequencies_ghz[d]
            lines = [
                self.model.estimate_cu(result, cu, f, ctx.f_lo_ghz, ctx.f_hi_ghz, ctx.config)
                for cu in cu_ids
            ]
            self._last[d] = aggregate(lines)

    def predict_domains(self) -> List[Optional[LinearSensitivity]]:
        return list(self._last)


class AccurateReactivePredictor(Predictor):
    """ACCREAC: reactive use of the oracle-accurate elapsed estimate."""

    name = "ACCREAC"
    needs_elapsed_truth = True

    def __init__(self, config: GpuConfig) -> None:
        self.config = config
        self._last: List[Optional[LinearSensitivity]] = [None] * config.n_domains

    def observe(self, result: EpochResult, ctx: ObserveContext) -> None:
        if ctx.true_domain_lines is None:
            raise ValueError("ACCREAC requires oracle truth for the elapsed epoch")
        self._last = list(ctx.true_domain_lines)

    def predict_domains(self) -> List[Optional[LinearSensitivity]]:
        return list(self._last)


class PCBasedPredictor(Predictor):
    """PCSTALL: wavefront-level estimates stored in PC-indexed tables.

    ``cus_per_table`` controls sharing: 1 = a private table per CU
    (default); ``config.n_cus`` = one table for the whole GPU.
    """

    name = "PCSTALL"

    def __init__(
        self,
        config: GpuConfig,
        estimator: Optional[EstimationModel] = None,
        table_config: PCTableConfig = PCTableConfig(),
        cus_per_table: int = 1,
    ) -> None:
        if config.n_cus % cus_per_table:
            raise ValueError("cus_per_table must divide n_cus")
        self.config = config
        self.estimator = estimator or WavefrontStallModel()
        self.table_config = table_config
        self.cus_per_table = cus_per_table
        self.tables = [
            PCTable(table_config) for _ in range(config.n_cus // cus_per_table)
        ]
        self._last_result: Optional[EpochResult] = None
        #: Reactive fallback on table miss: last estimate per wavefront id.
        self._last_wave_lines: Dict[int, LinearSensitivity] = {}

    def table_for_cu(self, cu_id: int) -> PCTable:
        return self.tables[cu_id // self.cus_per_table]

    def observe(self, result: EpochResult, ctx: ObserveContext) -> None:
        self._last_result = result
        next_wave_lines: Dict[int, LinearSensitivity] = {}
        for cu_id in range(self.config.n_cus):
            f = result.frequencies_ghz[cu_id // self.config.cus_per_domain]
            estimates = self.estimator.estimate_wavefronts(
                result, cu_id, f, ctx.f_lo_ghz, ctx.f_hi_ghz, ctx.config
            )
            update = self.table_for_cu(cu_id).update
            for record, line in estimates:
                update(record.start_pc_idx, line)
                next_wave_lines[record.wf_id] = line
        self._last_wave_lines = next_wave_lines

    def predict_domains(self) -> List[Optional[LinearSensitivity]]:
        result = self._last_result
        if result is None:
            return [None] * self.config.n_domains
        out: List[Optional[LinearSensitivity]] = []
        last_wave_lines = self._last_wave_lines
        for cu_ids in _domain_cu_ids(self.config):
            # Summed as floats from 0.0, in the order ``aggregate`` adds.
            i0 = slope = 0.0
            seen_any = False
            for cu_id in cu_ids:
                lookup = self.table_for_cu(cu_id).lookup
                for record in result.wave_records[cu_id]:
                    seen_any = True
                    line = lookup(record.next_pc_idx)
                    if line is None:
                        line = last_wave_lines.get(record.wf_id, LinearSensitivity.zero())
                    i0 += line.i0
                    slope += line.slope
            out.append(LinearSensitivity(i0, slope) if seen_any else None)
        return out

    def hit_ratio(self) -> float:
        lookups = sum(t.lookups for t in self.tables)
        hits = sum(t.hits for t in self.tables)
        return hits / lookups if lookups else 0.0

    def table_stats(self) -> Dict[str, int]:
        """Cumulative PC-table counters summed across every table.

        The telemetry recorder diffs consecutive snapshots into
        per-epoch lookup/hit/update/eviction deltas.
        """
        return {
            "lookups": sum(t.lookups for t in self.tables),
            "hits": sum(t.hits for t in self.tables),
            "updates": sum(t.updates for t in self.tables),
            "evictions": sum(t.evictions for t in self.tables),
        }


class AccuratePCPredictor(PCBasedPredictor):
    """ACCPC: the PC-based mechanism fed with oracle-accurate estimates.

    The per-domain truth is distributed to wavefronts proportionally to
    their committed share, then stored in the PC tables exactly like
    PCSTALL's own estimates. Impractical in hardware (needs the oracle)
    but bounds what PC-indexed prediction could achieve (Figure 14).
    """

    name = "ACCPC"
    needs_elapsed_truth = True

    def observe(self, result: EpochResult, ctx: ObserveContext) -> None:
        if ctx.true_domain_lines is None:
            raise ValueError("ACCPC requires oracle truth for the elapsed epoch")
        self._last_result = result
        next_wave_lines: Dict[int, LinearSensitivity] = {}
        for d, cu_ids in enumerate(_domain_cu_ids(self.config)):
            truth = ctx.true_domain_lines[d]
            domain_committed = sum(
                r.committed for cu in cu_ids for r in result.wave_records[cu]
            )
            for cu_id in cu_ids:
                table = self.table_for_cu(cu_id)
                for record in result.wave_records[cu_id]:
                    if domain_committed > 0:
                        share = record.committed / domain_committed
                    else:
                        n = sum(len(result.wave_records[c]) for c in cu_ids)
                        share = 1.0 / n if n else 0.0
                    line = LinearSensitivity(truth.i0 * share, truth.slope * share)
                    table.update(record.start_pc_idx, line)
                    next_wave_lines[record.wf_id] = line
        self._last_wave_lines = next_wave_lines


class PhaseHistoryPredictor(Predictor):
    """Global phase-history-table predictor (related work [55, 57]).

    CPU-era phase prediction: quantise the domain's sensitivity into a
    small number of levels, remember what level followed each recent
    history pattern, and predict the level that followed the current
    pattern last time. Captures short repetitive patterns in the
    *aggregate* signal - but, unlike PCSTALL, has no access to the
    per-wavefront position information, so GPU mix-driven variation
    defeats it (Section 2.4's critique).
    """

    name = "HISTORY"

    #: Longest accepted history pattern. The pattern table can hold up
    #: to ``n_levels ** history_length`` entries per domain, so an
    #: unbounded length is a memory blow-up dressed as a parameter (at
    #: the default 8 levels, 16 already allows ~2.8e14 patterns - far
    #: beyond any epoch stream's reach, so the cap costs nothing real).
    MAX_HISTORY_LENGTH = 16

    def __init__(
        self,
        model: EstimationModel,
        config: GpuConfig,
        history_length: int = 3,
        n_levels: int = 8,
    ) -> None:
        if history_length < 1:
            raise ValueError("history_length must be positive")
        if history_length > self.MAX_HISTORY_LENGTH:
            raise ValueError(
                f"history_length {history_length} exceeds the "
                f"MAX_HISTORY_LENGTH cap of {self.MAX_HISTORY_LENGTH} "
                f"(pattern-table size grows as n_levels ** history_length)"
            )
        if n_levels < 2:
            raise ValueError("need at least two quantisation levels")
        self.model = model
        self.config = config
        self.history_length = history_length
        self.n_levels = n_levels
        #: Per domain: recent level pattern.
        self._history: List[tuple] = [() for _ in range(config.n_domains)]
        #: Per domain: pattern -> (level, representative line) seen next.
        self._table: List[Dict[tuple, "LinearSensitivity"]] = [
            {} for _ in range(config.n_domains)
        ]
        self._last: List[Optional[LinearSensitivity]] = [None] * config.n_domains
        #: Per domain: running max |slope| for quantisation scale.
        self._scale: List[float] = [1.0] * config.n_domains

    def _level_of(self, domain: int, slope: float) -> int:
        scale = self._scale[domain]
        frac = min(1.0, abs(slope) / scale) if scale > 0 else 0.0
        return min(self.n_levels - 1, int(frac * self.n_levels))

    def observe(self, result: EpochResult, ctx: ObserveContext) -> None:
        for d, cu_ids in enumerate(_domain_cu_ids(self.config)):
            f = result.frequencies_ghz[d]
            line = aggregate(
                self.model.estimate_cu(result, cu, f, ctx.f_lo_ghz, ctx.f_hi_ghz, ctx.config)
                for cu in cu_ids
            )
            self._scale[d] = max(self._scale[d] * 0.999, abs(line.slope), 1.0)
            level = self._level_of(d, line.slope)
            pattern = self._history[d]
            if len(pattern) == self.history_length:
                # Record what followed this pattern.
                self._table[d][pattern] = line
            self._history[d] = (pattern + (level,))[-self.history_length :]
            self._last[d] = line

    def predict_domains(self) -> List[Optional[LinearSensitivity]]:
        out: List[Optional[LinearSensitivity]] = []
        for d in range(self.config.n_domains):
            pattern = self._history[d]
            predicted = self._table[d].get(pattern) if len(pattern) == self.history_length else None
            out.append(predicted if predicted is not None else self._last[d])
        return out

    def table_entries(self) -> int:
        """Total stored patterns across all domains (bounded by
        ``n_domains * n_levels ** history_length``)."""
        return sum(len(t) for t in self._table)

    def max_table_entries(self) -> int:
        """The hard ceiling the pattern tables can never exceed."""
        return self.config.n_domains * self.n_levels ** self.history_length


class OraclePredictor(Predictor):
    """ORACLE: told the true next-epoch line by the pre-execute harness."""

    name = "ORACLE"
    needs_future_truth = True

    def __init__(self, n_domains: int) -> None:
        self._n = n_domains
        self._next: List[Optional[LinearSensitivity]] = [None] * n_domains

    def set_future_truth(self, lines: Sequence[LinearSensitivity]) -> None:
        if len(lines) != self._n:
            raise ValueError("wrong number of domain lines")
        self._next = list(lines)

    def observe(self, result: EpochResult, ctx: ObserveContext) -> None:
        pass

    def predict_domains(self) -> List[Optional[LinearSensitivity]]:
        return list(self._next)


__all__ = [
    "Predictor",
    "ObserveContext",
    "StaticPredictor",
    "ReactivePredictor",
    "AccurateReactivePredictor",
    "PCBasedPredictor",
    "AccuratePCPredictor",
    "PhaseHistoryPredictor",
    "OraclePredictor",
]
