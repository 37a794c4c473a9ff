"""Frozen references for the decision path's arithmetic.

``repro replay`` compares a server with a trace recorded by the same
code, so it cannot see the decision arithmetic drift from an earlier
formulation. This module keeps verbatim copies of the earlier versions
of the rewritten hot paths - the power model without its memo, context
and objectives that predict every grid point twice, the
``interval_line`` closure, the per-wave estimator, the
``LinearSensitivity``-sum PCSTALL lookup and the ``restore_capture``
wire decoder - and asserts the live code matches them bit for bit,
NaN, +-inf, -0.0 and magnitudes up to 1e300 included.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from hypothesis import given, settings, strategies as st

from repro.config import GpuConfig, MemoryConfig, PowerConfig, default_frequency_grid
from repro.core.estimators import (
    EstimationModel,
    WavefrontEstimate,
    WavefrontStallModel,
    interval_line,
)
from repro.core.objectives import (
    EDnPObjective,
    ObjectiveContext,
    PerformanceCapObjective,
    QoSDeadlineObjective,
)
from repro.core.pc_table import PCTable, PCTableConfig
from repro.core.predictors import ObserveContext, PCBasedPredictor
from repro.core.sensitivity import LinearSensitivity
from repro.dvfs.hierarchy import HierarchicalPowerManager, PowerManagedObjective
from repro.gpu.cu import CuEpochStats
from repro.gpu.gpu import EpochResult, WaveEpochRecord
from repro.power.model import POWER_MEMO_MAX_FREQS, PowerModel
from repro.service.protocol import ProtocolError, epoch_result_from_wire

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=200, deadline=None)
#: The wire strategies build nested lists, so fewer of them.
DETERMINISTIC_WIRE = settings(derandomize=True, database=None, max_examples=80, deadline=None)

GRID = default_frequency_grid()
POWER_CONFIGS = (
    PowerConfig(),
    PowerConfig(idle_activity=0.2, temperature_factor=1.5, leakage_voltage_exponent=2.0),
)


# ----------------------------------------------------------------------
# The earlier formulations, copied verbatim

class RefPowerModel(PowerModel):
    def cu_power(self, f_ghz, activity):
        v = self.voltage(f_ghz)
        consumed = self.dynamic_power_per_cu(f_ghz, activity) + self.leakage_power_per_cu(f_ghz)
        return consumed / self.ivr_efficiency(v)


class RefContext(ObjectiveContext):
    def predicted_activity(self, line, f_ghz):
        slots = self.epoch_ns * f_ghz * self.issue_width * self.n_cus_in_domain
        if slots <= 0:
            return 0.0
        return min(1.0, line.predict(f_ghz) / slots)

    def domain_power(self, line, f_ghz):
        activity = self.predicted_activity(line, f_ghz)
        return (
            self.power.cu_power(f_ghz, activity) * self.n_cus_in_domain
            + self.memory_power_share
        )


class RefEDnP(EDnPObjective):
    def _work_price(self, line, ctx):
        f_ref = ctx.reference_freq_ghz
        p_ref = ctx.domain_power(line, f_ref)
        i_ref = max(line.predict(f_ref), 1.0)
        return self.price_scale * (self.n + 1) * p_ref / i_ref

    def choose(self, line, freq_grid, current_f, ctx, domain=0):
        if line is None:
            return current_f
        price = self._work_price(line, ctx)
        best_f = current_f
        best_cost = float("inf")
        for f in freq_grid:
            cost = ctx.domain_power(line, f) - price * line.predict(f)
            if cost < best_cost:
                best_cost = cost
                best_f = f
        return best_f


class RefCap(PerformanceCapObjective):
    def choose(self, line, freq_grid, current_f, ctx, domain=0):
        if line is None:
            return freq_grid[-1]
        f_max = freq_grid[-1]
        required = (1.0 - self.max_degradation) * line.predict(f_max)
        best_f = f_max
        best_power = float("inf")
        for f in freq_grid:
            if line.predict(f) + 1e-9 < required:
                continue
            power = ctx.domain_power(line, f)
            if power < best_power:
                best_power = power
                best_f = f
        return best_f


class RefQoS(QoSDeadlineObjective):
    def choose(self, line, freq_grid, current_f, ctx, domain=0):
        if line is None:
            return freq_grid[-1]
        best_f = None
        best_power = float("inf")
        for f in freq_grid:
            if line.predict(f) + 1e-9 < self.target:
                continue
            power = ctx.domain_power(line, f)
            if power < best_power:
                best_power = power
                best_f = f
        return best_f if best_f is not None else freq_grid[-1]


def ref_interval_line(committed, t_core_ns, t_async_ns, f1_ghz, f_lo_ghz, f_hi_ghz):
    total = t_core_ns + t_async_ns
    if total <= 0.0 or committed <= 0.0:
        return LinearSensitivity(max(0.0, committed), 0.0)

    def commits_at(f2: float) -> float:
        denom = t_core_ns * (f1_ghz / f2) + t_async_ns
        if denom <= 0.0:
            return committed
        return total * committed / denom

    i_lo = commits_at(f_lo_ghz)
    i_hi = commits_at(f_hi_ghz)
    if f_hi_ghz == f_lo_ghz:
        return LinearSensitivity(i_lo, 0.0)
    return LinearSensitivity.from_two_points(f_lo_ghz, i_lo, f_hi_ghz, i_hi)


class RefWavefrontStallModel(WavefrontStallModel):
    def estimate_wavefronts(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        records = result.wave_records[cu_id]
        t = result.duration_ns
        n = max(1, len(records))
        out: List[WavefrontEstimate] = []
        for r in records:
            s = r.stats
            t_async = min(t, s.stall_ns + s.barrier_stall_ns)
            t_core = t - t_async
            line = ref_interval_line(s.committed, t_core, t_async, f_ghz, f_lo_ghz, f_hi_ghz)
            if self.age_kappa > 0.0 and n > 1:
                shift = self.age_kappa * (r.age_rank / (n - 1)) if n > 1 else 0.0
                mid_f = 0.5 * (f_lo_ghz + f_hi_ghz)
                moved = shift * max(0.0, line.i0) * 0.1
                line = LinearSensitivity(line.i0 - moved, line.slope + moved / mid_f)
            out.append(WavefrontEstimate(r, line))
        return out


class RefPCBasedPredictor(PCBasedPredictor):
    def predict_domains(self):
        result = self._last_result
        if result is None:
            return [None] * self.config.n_domains
        out: List[Optional[LinearSensitivity]] = []
        per = self.config.cus_per_domain
        for d in range(self.config.n_domains):
            total = LinearSensitivity.zero()
            seen_any = False
            for cu_id in range(d * per, (d + 1) * per):
                table = self.table_for_cu(cu_id)
                for record in result.wave_records[cu_id]:
                    seen_any = True
                    line = table.lookup(record.next_pc_idx)
                    if line is None:
                        line = self._last_wave_lines.get(
                            record.wf_id, LinearSensitivity.zero()
                        )
                    total = total + line
            out.append(total if seen_any else None)
        return out


@dataclass
class _RefEntry:
    valid: bool = False
    i0: float = 0.0
    slope: float = 0.0
    pc_key: int = -1


class RefPCTable:
    """``PCTable`` before its entries kept the line they stored."""

    def __init__(self, config):
        self.config = config
        self._entries = [_RefEntry() for _ in range(config.n_entries)]
        self.lookups = 0
        self.hits = 0
        self.updates = 0
        self.evictions = 0

    def index_of(self, pc_bytes):
        return (pc_bytes >> self.config.offset_bits) % self.config.n_entries

    def index_of_instruction(self, pc_idx):
        return self.index_of(pc_idx * self.config.instruction_bytes)

    def _key_of_instruction(self, pc_idx):
        return (pc_idx * self.config.instruction_bytes) >> self.config.offset_bits

    def update(self, pc_idx, line):
        entry = self._entries[self.index_of_instruction(pc_idx)]
        key = self._key_of_instruction(pc_idx)
        w = self.config.update_weight
        if entry.valid and entry.pc_key != key:
            self.evictions += 1
        if entry.valid and entry.pc_key == key and w < 1.0:
            entry.i0 = (1 - w) * entry.i0 + w * line.i0
            entry.slope = (1 - w) * entry.slope + w * line.slope
        else:
            entry.i0 = line.i0
            entry.slope = line.slope
        entry.valid = True
        entry.pc_key = key
        self.updates += 1

    def lookup(self, pc_idx):
        self.lookups += 1
        entry = self._entries[self.index_of_instruction(pc_idx)]
        if not entry.valid:
            return None
        if entry.pc_key == self._key_of_instruction(pc_idx):
            self.hits += 1
        return LinearSensitivity(entry.i0, entry.slope)


def ref_epoch_result_from_wire(wire):
    try:
        cu_stats = []
        for cap in wire["cu_stats"]:
            stats = CuEpochStats()
            stats.restore_capture(tuple(cap))
            cu_stats.append(stats)
        wave_records = []
        for cu_records in wire["wave_records"]:
            records = []
            for rec in cu_records:
                (wf_id, age_rank, start_pc_idx, next_pc_idx, committed, stall_ns,
                 store_stall_ns, barrier_stall_ns, leading_load_ns, critical_mem_ns) = rec
                records.append(
                    WaveEpochRecord(
                        wf_id=int(wf_id),
                        age_rank=int(age_rank),
                        start_pc_idx=int(start_pc_idx),
                        next_pc_idx=int(next_pc_idx),
                        committed=committed,
                        stall_ns=stall_ns,
                        store_stall_ns=store_stall_ns,
                        barrier_stall_ns=barrier_stall_ns,
                        leading_load_ns=leading_load_ns,
                        critical_mem_ns=critical_mem_ns,
                    )
                )
            wave_records.append(tuple(records))
        return EpochResult(
            t_start=float(wire["t_start"]),
            t_end=float(wire["t_end"]),
            frequencies_ghz=tuple(wire["frequencies_ghz"]),
            cu_stats=tuple(cu_stats),
            wave_records=tuple(wave_records),
            transitions=int(wire["transitions"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed epoch result: {exc}") from None


# ----------------------------------------------------------------------
# Exact comparison

def bits(x):
    """A value's identity for exact comparison: its type and IEEE-754
    bits (-0.0 differs from 0.0), with every NaN alike."""
    if isinstance(x, float):
        return ("float", "nan" if math.isnan(x) else struct.pack("<d", x))
    return (type(x).__name__, x)


def line_bits(line):
    return None if line is None else (bits(line.i0), bits(line.slope))


def outcome(fn, *args):
    """``fn(*args)`` as comparable bits, or the type of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc))


def result_bits(result):
    return (
        bits(result.t_start), bits(result.t_end),
        tuple(bits(f) for f in result.frequencies_ghz), bits(result.transitions),
        tuple(tuple(bits(v) for v in s.capture()) for s in result.cu_stats),
        tuple(
            tuple(tuple(bits(v) for v in r) for r in records)
            for records in result.wave_records
        ),
    )


# ----------------------------------------------------------------------
# Strategies

SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0)
numbers = st.one_of(
    st.floats(-5e3, 5e3), st.floats(-1e300, 1e300), st.sampled_from(SPECIAL)
)
counts = st.one_of(st.integers(-3, 10**6), numbers)
frequencies = st.one_of(
    st.sampled_from(GRID), st.floats(0.5, 3.0), st.sampled_from(SPECIAL),
    st.sampled_from((-1e300, 1e300)),
)
lines = st.builds(LinearSensitivity, numbers, numbers)


@st.composite
def context_pairs(draw):
    """A live context and its reference twin, on the same platform."""
    cfg = draw(st.sampled_from(POWER_CONFIGS))
    facts = (
        draw(st.sampled_from((1000.0, 250.0, 0.0))),  # epoch_ns
        draw(st.integers(1, 4)),  # CUs in the domain
        draw(st.sampled_from((1, 2, 4))),  # issue width
        draw(st.sampled_from((0.0, 0.5, 3.25))),  # memory power share
        draw(st.sampled_from((1.7, 1.3, 2.2, 1.75))),  # reference frequency
    )
    return ObjectiveContext(PowerModel(cfg), *facts), RefContext(RefPowerModel(cfg), *facts)


objective_pairs = st.one_of(
    st.tuples(st.integers(0, 3), st.sampled_from((1.0, 0.5, 2.0))).map(
        lambda a: (EDnPObjective(*a), RefEDnP(*a))
    ),
    st.sampled_from((0.0, 0.05, 0.1, 0.5)).map(
        lambda d: (PerformanceCapObjective(d), RefCap(d))
    ),
    st.sampled_from((1.0, 500.0, 1e4)).map(
        lambda t: (QoSDeadlineObjective(t), RefQoS(t))
    ),
)


# ----------------------------------------------------------------------
# Power model and objectives

@DETERMINISTIC
@given(cfg=st.sampled_from(POWER_CONFIGS), f=frequencies, activity=numbers)
def test_cu_power_matches_reference(cfg, f, activity):
    live = PowerModel(cfg)
    want = bits(RefPowerModel(cfg).cu_power(f, activity))
    assert bits(live.cu_power(f, activity)) == want  # fills the memo
    assert bits(live.cu_power(f, activity)) == want  # reads it


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    extra=st.integers(1, 40), start=st.floats(0.0, 2.0), step=st.floats(1e-6, 0.05),
    activity=st.floats(-0.5, 1.5),
)
def test_power_memo_stays_within_its_cap(extra, start, step, activity):
    freqs = [start + k * step for k in range(POWER_MEMO_MAX_FREQS + extra)]
    cfg = PowerConfig()
    live, ref = PowerModel(cfg), RefPowerModel(cfg)
    for _ in range(2):  # the second pass reads back what the first stored
        for f in freqs:
            assert bits(live.cu_power(f, activity)) == bits(ref.cu_power(f, activity))
    assert len(live._terms) == POWER_MEMO_MAX_FREQS


@DETERMINISTIC
@given(pair=context_pairs(), line=lines, f=frequencies)
def test_domain_power_matches_reference(pair, line, f):
    live, ref = pair
    want = outcome(lambda: bits(ref.domain_power(line, f)))
    assert outcome(lambda: bits(live.domain_power(line, f))) == want
    assert outcome(lambda: bits(live.domain_power(line, f, line.predict(f)))) == want


@DETERMINISTIC
@given(
    pair=context_pairs(), objectives=objective_pairs, line=st.none() | lines,
    current=st.one_of(st.sampled_from(GRID), st.floats(1.0, 2.5)),
    drop=st.integers(0, len(GRID)),
)
def test_objectives_match_reference_in_power_managed_windows(
    pair, objectives, line, current, drop
):
    live_ctx, ref_ctx = pair
    live_obj, ref_obj = objectives
    assert bits(live_obj.choose(line, GRID, current, live_ctx)) == bits(
        ref_obj.choose(line, GRID, current, ref_ctx)
    )
    # The window a power manager `drop` steps below the top passes on.
    manager = HierarchicalPowerManager(GRID, power_budget=1.0, interval_ns=1.0)
    for _ in range(drop):
        manager.observe_epoch(2.0, 1.0)
    live = PowerManagedObjective(live_obj, manager).choose(line, GRID, current, live_ctx)
    ref = PowerManagedObjective(ref_obj, manager).choose(line, GRID, current, ref_ctx)
    assert bits(live) == bits(ref)


def grids(ref_freq):
    """The full grid, every power-managed window of it, and the full
    grid without ``ref_freq`` (so EDnP prices from the one-point form)."""
    windows = [GRID[:k] for k in range(1, len(GRID))]
    return [GRID, *windows, tuple(f for f in GRID if f != ref_freq)]


@DETERMINISTIC
@given(pair=context_pairs(), line=lines)
def test_score_grid_matches_reference_per_point_form(pair, line):
    live, ref = pair
    for grid in grids(live.reference_freq_ghz):
        want = [
            (bits(f), bits(line.predict(f)), outcome(lambda: bits(ref.domain_power(line, f))))
            for f in grid
        ]
        rows = live.score_grid(line, grid)
        got = [(bits(f), bits(c), ("ok", bits(p))) for f, c, p in rows]
        assert got == want


@DETERMINISTIC
@given(
    pair=context_pairs(), objectives=objective_pairs, line=lines,
    current=st.sampled_from(GRID),
)
def test_objectives_match_reference_on_grids_with_and_without_the_anchor(
    pair, objectives, line, current
):
    live_ctx, ref_ctx = pair
    live_obj, ref_obj = objectives
    for grid in grids(live_ctx.reference_freq_ghz):
        assert bits(live_obj.choose(line, grid, current, live_ctx)) == bits(
            ref_obj.choose(line, grid, current, ref_ctx)
        ), grid


@DETERMINISTIC
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 300), lines), max_size=60
    ),
    weight=st.sampled_from((1.0, 0.5, 0.25, 0.9)),
    n_entries=st.sampled_from((1, 8, 128)),
)
def test_pc_table_matches_reference(ops, weight, n_entries):
    config = PCTableConfig(n_entries=n_entries, update_weight=weight)
    live, ref = PCTable(config), RefPCTable(config)
    for update_pc, lookup_pc, line in ops:
        live.update(update_pc, line)
        ref.update(update_pc, line)
        assert line_bits(live.lookup(lookup_pc)) == line_bits(ref.lookup(lookup_pc))
    assert (live.lookups, live.hits, live.updates, live.evictions) == (
        ref.lookups, ref.hits, ref.updates, ref.evictions
    )


# ----------------------------------------------------------------------
# Estimator and PCSTALL

@DETERMINISTIC
@given(
    committed=counts, t_core=numbers, t_async=numbers, f1=frequencies,
    f_lo=frequencies, f_hi=frequencies, flat_window=st.booleans(),
)
def test_interval_line_matches_reference(committed, t_core, t_async, f1, f_lo, f_hi, flat_window):
    if flat_window:
        f_hi = f_lo
    args = (committed, t_core, t_async, f1, f_lo, f_hi)
    want = outcome(lambda: line_bits(ref_interval_line(*args)))
    assert outcome(lambda: line_bits(interval_line(*args))) == want


#: (committed, stall_ns, barrier_stall_ns): the counters WF-STALL reads.
wave_stats = st.tuples(counts, numbers, numbers)


class StatsRecord(NamedTuple):
    """The record shape the frozen per-wave estimator reads: the wave's
    counters behind ``.stats``."""

    wf_id: int
    age_rank: int
    stats: WaveEpochRecord


@DETERMINISTIC
@given(
    waves=st.lists(st.tuples(st.integers(0, 7), wave_stats), max_size=6),
    kappa=st.sampled_from((0.35, 0.0, 1.0, -0.1)),
    t_end=st.one_of(st.just(1000.0), numbers),
    f=frequencies,
    window=st.one_of(st.just((1.3, 2.2)), st.tuples(frequencies, frequencies)),
)
def test_wavefront_stall_estimates_match_reference(waves, kappa, t_end, f, window):
    records = tuple(
        WaveEpochRecord(i, rank, 0, 0, c, stall, 0.0, barrier, 0.0, 0.0)
        for i, (rank, (c, stall, barrier)) in enumerate(waves)
    )
    result = EpochResult(0.0, t_end, (f,), (CuEpochStats(),), (records,), 0)
    ref_records = tuple(StatsRecord(r.wf_id, r.age_rank, r) for r in records)
    ref_result = EpochResult(0.0, t_end, (f,), (CuEpochStats(),), (ref_records,), 0)
    config = GpuConfig(n_cus=1, waves_per_cu=8, memory=MemoryConfig(n_l2_banks=2))

    def estimates(model, result):
        return [
            (e.record.wf_id, line_bits(e.line))
            for e in model.estimate_wavefronts(result, 0, f, *window, config)
        ]

    want = outcome(lambda: estimates(RefWavefrontStallModel(kappa), ref_result))
    assert outcome(lambda: estimates(WavefrontStallModel(kappa), result)) == want


class ScriptedEstimator(EstimationModel):
    """Hands the predictor pre-drawn lines in wave order; None = no
    estimate for that wave (so its PC table entry and reactive fallback
    stay as they were)."""

    name = "SCRIPTED"

    def __init__(self, script: List[Optional[LinearSensitivity]]) -> None:
        self.script = script
        self.k = 0

    def estimate_cu(self, *args):
        raise NotImplementedError

    def estimate_wavefronts(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        out = []
        for record in result.wave_records[cu_id]:
            line = self.script[self.k % len(self.script)]
            self.k += 1
            if line is not None:
                out.append(WavefrontEstimate(record, line))
        return out


# (wf_id, start PC, next PC) per wave, per CU, per epoch; PCs collide
# in the 128-entry tables so lookups hit, alias and miss.
epochs = st.lists(
    st.lists(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 300), st.integers(0, 300)),
            max_size=5,
        ),
        min_size=4, max_size=4,
    ),
    min_size=1, max_size=5,
)


@DETERMINISTIC
@given(
    script=st.lists(st.none() | lines, min_size=1, max_size=30),
    epochs=epochs,
    cus_per_domain=st.sampled_from((1, 2, 4)),
    cus_per_table=st.sampled_from((1, 2, 4)),
)
def test_pcstall_predict_domains_matches_reference(script, epochs, cus_per_domain, cus_per_table):
    config = GpuConfig(
        n_cus=4, waves_per_cu=8, cus_per_domain=cus_per_domain,
        memory=MemoryConfig(n_l2_banks=4),
    )
    live = PCBasedPredictor(config, ScriptedEstimator(script), cus_per_table=cus_per_table)
    ref = RefPCBasedPredictor(config, ScriptedEstimator(script), cus_per_table=cus_per_table)
    assert live.predict_domains() == ref.predict_domains()  # nothing observed yet
    ctx = ObserveContext(config, 1.3, 2.2)
    for epoch in epochs:
        result = EpochResult(
            0.0, 1000.0, (1.7,) * config.n_domains, (CuEpochStats(),) * 4,
            tuple(
                tuple(WaveEpochRecord(wf, 0, start, nxt, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
                      for wf, start, nxt in cu)
                for cu in epoch
            ),
            0,
        )
        live.observe(result, ctx)
        ref.observe(result, ctx)
        assert [line_bits(x) for x in live.predict_domains()] == [
            line_bits(x) for x in ref.predict_domains()
        ]


# ----------------------------------------------------------------------
# Wire decoding

scalars = st.one_of(st.integers(-10, 10**6), numbers, st.booleans())


def captures(arity):
    return st.lists(scalars, min_size=arity, max_size=arity)


CU_ARITY = len(CuEpochStats().capture())
WAVE_ARITY = len(WaveEpochRecord._fields)
wave_records = st.tuples(
    st.integers(0, 64), st.integers(0, 8), st.integers(0, 500), st.integers(0, 500),
    captures(WAVE_ARITY - 4),
).map(lambda t: [*t[:4], *t[4]])
wire_results = st.fixed_dictionaries({
    "t_start": numbers,
    "t_end": numbers,
    "frequencies_ghz": st.lists(st.sampled_from(GRID), min_size=1, max_size=4),
    "transitions": st.integers(0, 5),
    "cu_stats": st.lists(captures(CU_ARITY), min_size=1, max_size=3),
    "wave_records": st.lists(st.lists(wave_records, min_size=1, max_size=3), min_size=1, max_size=3),
})
#: What a broken capture may be: the wrong length, or not a list at all.
bad_captures = st.one_of(
    st.integers(0, 3).map(lambda n: [0] * n),
    st.integers(1, 3).map(lambda n: [0] * (max(CU_ARITY, WAVE_ARITY) + n)),
    st.sampled_from((None, 7, 2.5, True, "committed", {"committed": 1})),
)


@DETERMINISTIC_WIRE
@given(wire=wire_results)
def test_epoch_result_decode_matches_reference(wire):
    want = outcome(lambda: result_bits(ref_epoch_result_from_wire(wire)))
    assert want[0] == "ok"
    assert outcome(lambda: result_bits(epoch_result_from_wire(wire))) == want


@DETERMINISTIC_WIRE
@given(wire=wire_results, bad=bad_captures, in_wave=st.booleans(), data=st.data())
def test_malformed_captures_are_protocol_errors(wire, bad, in_wave, data):
    if in_wave:
        cu = data.draw(st.integers(0, len(wire["wave_records"]) - 1))
        wave = data.draw(st.integers(0, len(wire["wave_records"][cu]) - 1))
        wire["wave_records"][cu][wave] = bad
    else:
        wire["cu_stats"][data.draw(st.integers(0, len(wire["cu_stats"]) - 1))] = bad
    assert outcome(ref_epoch_result_from_wire, wire) == ("raised", ProtocolError)
    assert outcome(epoch_result_from_wire, wire) == ("raised", ProtocolError)
