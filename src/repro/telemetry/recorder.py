"""The per-epoch decision trace: bounded-memory structured records.

:class:`EpochTraceRecorder` is handed to
:class:`~repro.dvfs.simulation.DvfsSimulation` (``telemetry=`` argument)
and receives one callback per executed epoch. From it the recorder
emits the record stream documented in :mod:`repro.telemetry.schema`:
an ``epoch`` record plus one ``domain`` record per V/f domain, with the
predicted sensitivity line, the chosen and oracle-best frequencies, the
stall/busy split and PC-table deltas.

Memory is bounded two ways, selectable per use:

* a **ring buffer** (``TelemetryConfig.ring_size``) keeps the most
  recent records in memory for programmatic drill-down; older records
  are dropped and counted, never re-allocated (``ring_size=None``
  keeps the whole run instead);
* the run's **JSONL stream** (``TelemetryConfig.jsonl_path``), written
  through :class:`~repro.telemetry.schema.JsonlWriter`, receives every
  record as it is produced, so arbitrarily long runs archive fully with
  O(1) resident records. :meth:`EpochTraceRecorder.write` puts a
  foreign record - a span or a drift alert - into the same stream as it
  happens, between the epochs it observes.

When no recorder is attached the simulation takes a single
``is None`` branch per epoch - no recorder or record objects are
allocated (the overhead-off equivalence test pins this down).

This module deliberately imports nothing from :mod:`repro.dvfs` or
:mod:`repro.gpu`; it receives plain result objects and reads public
attributes, which keeps the dependency arrow pointing from the
simulation into telemetry only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # duck-typed at runtime; keeps telemetry import-light
    from repro.obs.drift import DriftMonitor

from repro.telemetry.schema import (
    JsonlWriter,
    build_meta,
    epoch_result_to_wire,
    sim_config_to_wire,
)

#: Frequency comparison slack (GHz); matches the oracle's grid tolerance.
_FREQ_ABS_TOL_GHZ = 1e-6

#: Cumulative PC-table counter names diffed into per-epoch deltas.
_PC_STAT_KEYS = ("lookups", "hits", "updates", "evictions")


@dataclass(frozen=True)
class TelemetryConfig:
    """What the recorder keeps and where it streams."""

    #: Ring-buffer capacity for in-memory records (0 = keep nothing in
    #: memory; the JSONL stream still receives everything; None = keep
    #: every record of the run).
    ring_size: Optional[int] = 4096
    #: Stream every record to this JSONL file as it is produced.
    jsonl_path: Optional[str] = None
    #: Aggregate per-PC prediction-error attribution across the run.
    record_pc_attribution: bool = True
    #: Stream one ``observation`` record per epoch: the full
    #: :class:`~repro.gpu.gpu.EpochResult` in wire form plus oracle
    #: truth lines, and embed the full ``sim_config`` in the run
    #: header - everything ``repro replay`` needs to re-drive a live
    #: decision service through the run. JSONL-only (observations are
    #: too large for the ring), so requires ``jsonl_path``.
    record_observations: bool = False

    def __post_init__(self) -> None:
        if self.ring_size is not None and self.ring_size < 0:
            raise ValueError("ring_size must be non-negative")
        if self.record_observations and self.jsonl_path is None:
            raise ValueError(
                "record_observations streams to disk only; set jsonl_path"
            )


@dataclass
class PcErrorStat:
    """Accumulated prediction error attributed to one start PC."""

    pc_idx: int
    samples: int = 0
    committed: int = 0
    #: Sum of (domain relative error x wavefront commit share); the
    #: run-level ranking weight for "which PCs mispredict".
    weighted_error: float = 0.0

    def as_record(self) -> Dict[str, object]:
        return {
            "type": "pc",
            "pc_idx": self.pc_idx,
            "samples": self.samples,
            "committed": self.committed,
            "weighted_error": self.weighted_error,
        }


class EpochTraceRecorder:
    """Collects one structured record per epoch per domain."""

    def __init__(
        self,
        config: TelemetryConfig = TelemetryConfig(),
        drift: Optional["DriftMonitor"] = None,
    ) -> None:
        self.config = config
        #: Optional online drift monitor; fed one relative-error
        #: observation per scored (epoch, domain). Purely observational.
        self.drift = drift
        self.records: Deque[Dict[str, object]] = deque(maxlen=config.ring_size)
        self.meta: Optional[Dict[str, object]] = None
        #: End-of-run aggregate records (``pc`` + ``summary``). Kept out
        #: of the ring so flushing a large PC table never evicts epoch
        #: records that a timeline export still needs.
        self.final_records: List[Dict[str, object]] = []
        self.pc_stats: Dict[int, PcErrorStat] = {}
        self.total_records = 0
        self.epochs = 0
        self._writer: Optional[JsonlWriter] = None
        self._n_domains = 0
        self._cus_per_domain = 1
        self._freq_grid: Sequence[float] = ()
        self._last_pc_cumulative: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle

    def begin_run(
        self,
        workload: str,
        design: str,
        sim_config,
        objective_name: str = "",
    ) -> None:
        """Open the stream for one (workload x design) run."""
        gpu_cfg = sim_config.gpu
        self._n_domains = gpu_cfg.n_domains
        self._cus_per_domain = gpu_cfg.cus_per_domain
        self._freq_grid = tuple(sim_config.dvfs.frequencies_ghz)
        self._last_pc_cumulative = None
        extra: Dict[str, object] = {}
        if self.config.record_observations:
            # Not named "config": build_meta's first parameter owns that
            # word, and replay reads this key explicitly.
            extra["sim_config"] = sim_config_to_wire(sim_config)
        self.meta = build_meta(
            sim_config,
            workload=workload,
            design=design,
            objective=objective_name,
            n_domains=self._n_domains,
            epoch_ns=sim_config.dvfs.epoch_ns,
            frequencies_ghz=list(self._freq_grid),
            **extra,
        )
        header = {"type": "run", **self.meta}
        if self.config.jsonl_path is not None:
            self._writer = JsonlWriter(self.config.jsonl_path, header)
        self.records.append(header)

    def close(self) -> None:
        """Flush and close the JSONL stream, if one is open."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "EpochTraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Per-epoch callback (hot path when enabled; never called when off)

    def record_epoch(
        self,
        epoch_index: int,
        result,
        chosen_freqs: Sequence[float],
        predictions: Sequence[object],
        actual_per_domain: Sequence[int],
        sample=None,
        oracle_freqs: Optional[Sequence[float]] = None,
        epoch_energy: float = 0.0,
        pc_cumulative: Optional[Dict[str, int]] = None,
    ) -> None:
        """Digest one elapsed epoch.

        ``result`` is an :class:`~repro.gpu.gpu.EpochResult`;
        ``predictions`` the controller's per-domain sensitivity lines
        (None where the design made no prediction); ``sample`` the
        elapsed epoch's :class:`~repro.dvfs.oracle.OracleSample` when
        truth sampling ran; ``oracle_freqs`` the frequency the objective
        would have chosen per domain given the true line;
        ``pc_cumulative`` the predictor's cumulative PC-table counters
        (diffed into per-epoch deltas here).
        """
        self.epochs += 1
        duration = result.duration_ns

        epoch_rec: Dict[str, object] = {
            "type": "epoch",
            "epoch": epoch_index,
            "t_start_ns": result.t_start,
            "t_end_ns": result.t_end,
            "energy": epoch_energy,
            "transitions": result.transitions,
            "committed": result.total_committed(),
        }
        if pc_cumulative is not None:
            last = self._last_pc_cumulative or {k: 0 for k in _PC_STAT_KEYS}
            for k in _PC_STAT_KEYS:
                epoch_rec[f"pc_{k}"] = pc_cumulative.get(k, 0) - last.get(k, 0)
            self._last_pc_cumulative = dict(pc_cumulative)
        self._emit(epoch_rec)

        if self.config.record_observations:
            # The complete predictor input for this epoch; with the run
            # header's sim_config this is sufficient to replay the run
            # decision-for-decision (repro replay). Stream-only: one
            # observation holds every wavefront's counters, and counting
            # or ring-buffering it would distort the epoch/domain
            # bookkeeping the drill-down tools rely on.
            self.write(
                {
                    "type": "observation",
                    "epoch": epoch_index,
                    "result": epoch_result_to_wire(result),
                    "truth": (
                        [[ln.i0, ln.slope] for ln in sample.lines]
                        if sample is not None
                        else None
                    ),
                }
            )

        per = self._cus_per_domain
        rel_errors: List[Optional[float]] = []
        for d in range(self._n_domains):
            line = predictions[d] if d < len(predictions) else None
            actual = int(actual_per_domain[d])
            chosen = float(chosen_freqs[d])
            pred_commits = line.predict(chosen) if line is not None else None
            rel_error: Optional[float] = None
            if pred_commits is not None and actual > 0:
                rel_error = abs(pred_commits - actual) / actual
                if self.drift is not None:
                    self.drift.observe_error(rel_error)
            rel_errors.append(rel_error)

            busy = 0.0
            issued = 0
            committed = 0
            for cu_id in range(d * per, (d + 1) * per):
                stats = result.cu_stats[cu_id]
                split = stats.stall_breakdown(duration)
                busy += split["busy_ns"]
                issued += stats.issued
                committed += stats.committed

            rec: Dict[str, object] = {
                "type": "domain",
                "epoch": epoch_index,
                "domain": d,
                "freq_ghz": chosen,
                "pred_i0": line.i0 if line is not None else None,
                "pred_slope": line.slope if line is not None else None,
                "pred_commits": pred_commits,
                "actual_commits": actual,
                "rel_error": rel_error,
                "oracle_freq_ghz": None,
                "oracle_i0": None,
                "oracle_slope": None,
                "oracle_r2": None,
                "oracle_commits": None,
                "mispredicted": None,
                "busy_ns": busy,
                "stall_ns": duration * per - busy,
                "issued": issued,
                "committed": committed,
            }
            if sample is not None:
                fit = sample.fits[d]
                rec["oracle_i0"] = fit.model.i0
                rec["oracle_slope"] = fit.model.slope
                rec["oracle_r2"] = fit.r_squared
                rec["oracle_commits"] = sample.commits_at(d, chosen)
            if oracle_freqs is not None:
                oracle_f = float(oracle_freqs[d])
                rec["oracle_freq_ghz"] = oracle_f
                mispredicted = not math.isclose(
                    chosen, oracle_f, abs_tol=_FREQ_ABS_TOL_GHZ
                )
                rec["mispredicted"] = mispredicted
            self._emit(rec)

        if self.config.record_pc_attribution:
            self._attribute_pcs(result, rel_errors)

    def _attribute_pcs(
        self, result, rel_errors: Sequence[Optional[float]]
    ) -> None:
        """Distribute each domain's error over the PCs its waves ran."""
        per = self._cus_per_domain
        for d, rel_error in enumerate(rel_errors):
            if rel_error is None:
                continue
            cu_ids = range(d * per, (d + 1) * per)
            domain_committed = sum(
                r.committed
                for cu_id in cu_ids
                for r in result.wave_records[cu_id]
            )
            if domain_committed <= 0:
                continue
            for cu_id in cu_ids:
                for record in result.wave_records[cu_id]:
                    stat = self.pc_stats.get(record.start_pc_idx)
                    if stat is None:
                        stat = self.pc_stats[record.start_pc_idx] = PcErrorStat(
                            record.start_pc_idx
                        )
                    share = record.committed / domain_committed
                    stat.samples += 1
                    stat.committed += record.committed
                    stat.weighted_error += rel_error * share

    # ------------------------------------------------------------------
    # End-of-run

    def end_run(self, run_result) -> None:
        """Record the run digest and flush aggregated PC attribution."""
        for stat in sorted(
            self.pc_stats.values(), key=lambda s: -s.weighted_error
        ):
            self._final(stat.as_record())
        self._final(
            {
                "type": "summary",
                "workload": run_result.workload,
                "design": run_result.design,
                "epochs": run_result.epochs,
                "delay_ns": run_result.delay_ns,
                "energy_total": run_result.energy.total,
                # Conservation targets for the validation auditors: the
                # epoch records' committed counts and energies must sum
                # to these (see repro.validation.invariants).
                "elapsed_ns": run_result.energy.elapsed_ns,
                "total_committed": run_result.total_committed,
                "prediction_accuracy": run_result.prediction_accuracy,
                "pc_hit_ratio": run_result.pc_hit_ratio,
                "completed": run_result.completed,
            }
        )

    def write(self, record: Mapping[str, object]) -> None:
        """Write a record into the run's JSONL stream as it happens.

        The hook for records from another source (a tracer's spans, a
        drift monitor's alerts): not counted and not put in the ring.
        Without a JSONL stream the record goes nowhere.
        """
        if self._writer is not None:
            self._writer.write(record)

    # ------------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Records evicted from the ring buffer (still in the JSONL)."""
        return self.total_records - len(
            [r for r in self.records if r["type"] in ("epoch", "domain")]
        )

    def domain_records(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == "domain"]

    def in_memory(self) -> List[Dict[str, object]]:
        """The records held in memory, in stream order: the ring, then
        the end-of-run ``pc`` and ``summary`` records."""
        return list(self.records) + self.final_records

    def _emit(self, record: Dict[str, object]) -> None:
        """One of the run's own epoch or domain records."""
        self.total_records += 1
        self.records.append(record)
        self.write(record)

    def _final(self, record: Dict[str, object]) -> None:
        self.final_records.append(record)
        self.write(record)


__all__ = ["TelemetryConfig", "EpochTraceRecorder", "PcErrorStat"]
