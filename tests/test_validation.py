"""Validation subsystem: auditors, differentials, property suites.

Covers the three layers of :mod:`repro.validation`:

* every shipped invariant auditor catches a deliberately corrupted
  artifact (fixture-driven, one corruption per check name);
* the differential machinery diffs RunResults / record streams and the
  tiny end-to-end pairs come back identical;
* Hypothesis property suites: the real :class:`PCTable` against the
  dict-backed reference model under random op streams, prediction
  bounds, wire-codec round-trips, and residency normalisation. All
  suites run derandomised so CI failures reproduce exactly.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.core.controller import ControllerLog
from repro.core.pc_table import PCTable, PCTableConfig
from repro.core.sensitivity import LinearSensitivity
from repro.dvfs.simulation import RunResult
from repro.gpu.cu import CuEpochStats
from repro.gpu.gpu import EpochResult, WaveEpochRecord
from repro.power.energy import EnergyBreakdown
from repro.validation import (
    CheckReport,
    DiffReport,
    FieldMismatch,
    audit_controller_log,
    audit_energy_breakdown,
    audit_epoch_records,
    audit_pc_table,
    audit_run_result,
    diff_run_results,
    engine_differential,
    first_divergence,
    make_task,
    oracle_fork_differential,
)
from properties import (
    PCTableModel,
    check_sensitivity_bounds,
    epoch_result_round_trips,
    sensitivity_round_trips,
)

GRID = small_config().dvfs.frequencies_ghz

#: Deterministic, database-free settings for every property suite.
DETERMINISTIC = settings(derandomize=True, database=None, max_examples=60)


def clean_result(**over) -> RunResult:
    """A RunResult satisfying every invariant; corrupt via ``over``."""
    fields = dict(
        design="PCSTALL",
        workload="comd",
        epochs=4,
        delay_ns=3500.0,
        energy=EnergyBreakdown(
            cu_dynamic_and_leakage=10.0, memory=5.0, transitions=1.0,
            elapsed_ns=4000.0,
        ),
        prediction_accuracy=0.9,
        frequency_residency={f: (1.0 if f == 1.7 else 0.0) for f in GRID},
        total_committed=1000,
        total_transitions=3,
        pc_hit_ratio=0.95,
        completed=True,
    )
    fields.update(over)
    return RunResult(**fields)


def checks(violations):
    return {v.check for v in violations}


class TestAuditRunResult:
    def test_clean_result_has_no_violations(self):
        assert audit_run_result(clean_result(), GRID) == []

    def test_negative_energy_component(self):
        r = clean_result(energy=EnergyBreakdown(cu_dynamic_and_leakage=-1.0))
        assert "energy_component_negative" in checks(audit_run_result(r, GRID))

    def test_negative_count(self):
        r = clean_result(total_committed=-5)
        assert "count_negative" in checks(audit_run_result(r, GRID))

    def test_accuracy_above_one(self):
        r = clean_result(prediction_accuracy=1.5)
        assert "ratio_out_of_bounds" in checks(audit_run_result(r, GRID))

    def test_residency_sum_below_one(self):
        # The symptom of the float-keyed residency bug: a decision
        # counted in the denominator but dropped from every bucket.
        r = clean_result(
            frequency_residency={f: (0.5 if f == 1.7 else 0.0) for f in GRID}
        )
        assert "residency_sum" in checks(audit_run_result(r, GRID))

    def test_residency_off_grid_key(self):
        bad = {f: 0.0 for f in GRID}
        del bad[1.7]
        bad[0.1 * 17] = 1.0  # 1.7000000000000002: on-grid after snapping
        assert audit_run_result(clean_result(frequency_residency=bad), GRID) == []
        bad2 = dict(bad)
        del bad2[0.1 * 17]
        bad2[1.75] = 1.0  # genuinely between grid points
        r = clean_result(frequency_residency=bad2)
        assert "residency_off_grid" in checks(audit_run_result(r, GRID))

    def test_residency_share_out_of_bounds(self):
        bad = {f: 0.0 for f in GRID}
        bad[1.7] = 2.0
        bad[1.3] = -1.0
        got = checks(audit_run_result(clean_result(frequency_residency=bad), GRID))
        assert "residency_share_out_of_bounds" in got

    def test_completed_delay_beyond_window(self):
        r = clean_result(delay_ns=4100.0)
        assert "delay_exceeds_window" in checks(audit_run_result(r, GRID))

    def test_truncated_run_may_exceed_window(self):
        r = clean_result(delay_ns=4100.0, completed=False)
        assert "delay_exceeds_window" not in checks(audit_run_result(r, GRID))


class TestAuditEnergyBreakdown:
    def test_clean(self):
        b = EnergyBreakdown(cu_dynamic_and_leakage=1.0, memory=2.0,
                            transitions=0.5, elapsed_ns=10.0)
        assert audit_energy_breakdown(b) == []

    def test_total_not_trusted(self):
        # The auditor recomputes the sum rather than trusting `total`,
        # so a subclass (or future cached field) that drifts is caught.
        fake = SimpleNamespace(cu_dynamic_and_leakage=1.0, memory=2.0,
                               transitions=0.0, elapsed_ns=1.0, total=99.0)
        assert "energy_total_mismatch" in checks(audit_energy_breakdown(fake))

    def test_nan_component(self):
        b = EnergyBreakdown(cu_dynamic_and_leakage=float("nan"))
        assert "energy_component_negative" in checks(audit_energy_breakdown(b))


class TestAuditControllerLog:
    def test_clean_log(self):
        log = ControllerLog()
        log.chosen_freqs.append([1.7, 1.3])
        log.predictions.append([None, None])
        assert audit_controller_log(log, GRID) == []

    def test_off_grid_decision(self):
        log = ControllerLog()
        log.chosen_freqs.append([1.75, 1.7])
        log.predictions.append([None, None])
        assert "chosen_freq_off_grid" in checks(audit_controller_log(log, GRID))

    def test_length_mismatch(self):
        log = ControllerLog()
        log.chosen_freqs.append([1.7])
        assert "log_length_mismatch" in checks(audit_controller_log(log, GRID))


class TestAuditPCTable:
    def test_real_table_is_clean(self):
        table = PCTable(PCTableConfig(n_entries=8))
        for pc in range(20):
            table.update(pc, LinearSensitivity(1.0, 2.0))
            table.lookup(pc)
        assert audit_pc_table(table) == []

    def test_hits_exceed_lookups(self):
        fake = SimpleNamespace(lookups=5, hits=9, updates=0, evictions=0,
                               occupancy=0.5)
        assert "pc_hits_exceed_lookups" in checks(audit_pc_table(fake))

    def test_evictions_exceed_updates(self):
        fake = SimpleNamespace(lookups=0, hits=0, updates=2, evictions=3,
                               occupancy=0.5)
        assert "pc_evictions_exceed_updates" in checks(audit_pc_table(fake))

    def test_negative_counter_and_bad_occupancy(self):
        fake = SimpleNamespace(lookups=-1, hits=0, updates=0, evictions=0,
                               occupancy=1.5)
        got = checks(audit_pc_table(fake))
        assert "count_negative" in got
        assert "ratio_out_of_bounds" in got


def make_stream(**over):
    """A conservation-clean telemetry stream; corrupt via ``over``."""
    records = {
        "run": {"type": "run", "workload": "w", "design": "d",
                "frequencies_ghz": list(GRID)},
        "epoch0": {"type": "epoch", "epoch": 0, "t_start_ns": 0.0,
                   "t_end_ns": 1000.0, "energy": 5.0, "committed": 100,
                   "pc_lookups": 10, "pc_hits": 8},
        "domain0": {"type": "domain", "epoch": 0, "domain": 0,
                    "freq_ghz": 1.7, "rel_error": 0.1, "actual_commits": 100},
        "epoch1": {"type": "epoch", "epoch": 1, "t_start_ns": 1000.0,
                   "t_end_ns": 2000.0, "energy": 7.0, "committed": 150,
                   "pc_lookups": 10, "pc_hits": 9},
        "domain1": {"type": "domain", "epoch": 1, "domain": 0,
                    "freq_ghz": 1.3, "rel_error": 0.0, "actual_commits": 150},
        "summary": {"type": "summary", "epochs": 2, "total_committed": 250,
                    "energy_total": 12.0, "elapsed_ns": 2000.0,
                    "delay_ns": 1800.0, "completed": True},
    }
    for name, patch in over.items():
        records[name] = {**records[name], **patch}
    return list(records.values())


class TestAuditEpochRecords:
    def test_clean_stream(self):
        assert audit_epoch_records(make_stream()) == []

    def test_backwards_epoch_window(self):
        stream = make_stream(epoch1={"t_end_ns": 500.0})
        assert "clock_not_monotone" in checks(audit_epoch_records(stream))

    def test_overlapping_epochs(self):
        stream = make_stream(epoch1={"t_start_ns": 400.0, "t_end_ns": 1400.0})
        got = checks(audit_epoch_records(stream))
        assert "clock_not_monotone" in got

    def test_committed_not_conserved(self):
        stream = make_stream(summary={"total_committed": 999})
        assert "committed_not_conserved" in checks(audit_epoch_records(stream))

    def test_energy_not_conserved(self):
        stream = make_stream(summary={"energy_total": 20.0})
        assert "epoch_energy_not_conserved" in checks(audit_epoch_records(stream))

    def test_epoch_count_mismatch(self):
        stream = make_stream(summary={"epochs": 7})
        assert "epoch_count_mismatch" in checks(audit_epoch_records(stream))

    def test_negative_epoch_energy(self):
        stream = make_stream(epoch0={"energy": -1.0}, summary={"energy_total": 6.0})
        assert "epoch_energy_negative" in checks(audit_epoch_records(stream))

    def test_per_epoch_pc_hits_exceed_lookups(self):
        stream = make_stream(epoch0={"pc_hits": 11})
        assert "pc_hits_exceed_lookups" in checks(audit_epoch_records(stream))

    def test_domain_freq_off_run_grid(self):
        stream = make_stream(domain1={"freq_ghz": 1.75})
        assert "chosen_freq_off_grid" in checks(audit_epoch_records(stream))

    def test_summary_delay_beyond_window(self):
        stream = make_stream(summary={"delay_ns": 2500.0})
        assert "delay_exceeds_window" in checks(audit_epoch_records(stream))

    def test_window_not_conserved(self):
        stream = make_stream(summary={"elapsed_ns": 3000.0, "delay_ns": 100.0})
        assert "window_not_conserved" in checks(audit_epoch_records(stream))

    def test_stream_without_summary_skips_conservation(self):
        stream = [r for r in make_stream() if r["type"] != "summary"]
        assert audit_epoch_records(stream) == []


class TestDiffRunResults:
    def test_identical(self):
        assert diff_run_results(clean_result(), clean_result()) == []

    def test_energy_component_named(self):
        b = clean_result(
            energy=EnergyBreakdown(cu_dynamic_and_leakage=10.0, memory=5.5,
                                   transitions=1.0, elapsed_ns=4000.0)
        )
        diffs = diff_run_results(clean_result(), b)
        assert [m.field for m in diffs] == ["energy.memory"]

    def test_scalar_field_named(self):
        diffs = diff_run_results(clean_result(), clean_result(epochs=5))
        assert [m.field for m in diffs] == ["epochs"]

    def test_hotpath_ignored(self):
        a = clean_result(hotpath={"cycles": 1})
        b = clean_result(hotpath={"cycles": 2})
        assert diff_run_results(a, b) == []

    def test_first_divergence_points_at_epoch(self):
        a = make_stream()
        b = make_stream(epoch1={"committed": 151}, summary={"total_committed": 251})
        assert first_divergence(a, b) == 1
        assert first_divergence(a, make_stream()) is None

    def test_first_divergence_on_length_mismatch(self):
        a = make_stream()
        b = [r for r in make_stream() if r.get("epoch") != 1]
        assert first_divergence(a, b) == 1


class TestCheckReport:
    def test_ok_logic(self):
        report = CheckReport()
        assert report.ok
        report.differentials.append(
            DiffReport(name="engine", subject="s", sides=("a", "b"))
        )
        assert report.ok
        report.differentials[0].mismatches.append(FieldMismatch("epochs", 1, 2))
        assert not report.ok

    def test_violations_fail_report(self):
        report = CheckReport(
            violations=audit_run_result(clean_result(total_committed=-1), GRID)
        )
        assert not report.ok
        assert "FAIL" in report.render()
        d = report.as_dict()
        assert d["ok"] is False and d["violations"]

    def test_cell_audit_reads_the_summary(self, monkeypatch):
        """The audit covers the whole in-memory stream, the end-of-run
        summary included, so a summary that disagrees with its epochs
        is caught."""
        from repro.telemetry.recorder import EpochTraceRecorder
        from repro.validation.check import CheckConfig, _audit_cell

        cfg = CheckConfig(workloads=("comd",), designs=("PCSTALL",), max_epochs=20)
        clean, _ = _audit_cell(cfg, "comd", "PCSTALL")
        assert clean == []

        end_run = EpochTraceRecorder.end_run

        def corrupting_end_run(self, run_result):
            end_run(self, run_result)
            self.final_records[-1]["total_committed"] += 1

        monkeypatch.setattr(EpochTraceRecorder, "end_run", corrupting_end_run)
        violations, _ = _audit_cell(cfg, "comd", "PCSTALL")
        assert [v.check for v in violations] == ["committed_not_conserved"]

    def test_cli_parser_accepts_check(self):
        from repro.cli import build_parser, cmd_check

        args = build_parser().parse_args(["check", "--deep", "--json", "r.json"])
        assert args.fn is cmd_check and args.deep and args.json == "r.json"


class TestDifferentialEndToEnd:
    """Tiny real pairs: slow-ish, so one small cell each."""

    def _config(self):
        return small_config(n_cus=2, waves_per_cu=4)

    def test_engine_differential_identical(self):
        task = make_task("comd", "STATIC@1.7", self._config(),
                         scale=0.05, max_epochs=8, oracle_sample_freqs=3)
        report = engine_differential(task, trace=True)
        assert report.ok, report.render()
        assert report.first_diverging_epoch is None

    def _oracle_fork_report(self):
        from repro.workloads import build_workload, workload

        kernels = build_workload(workload("comd"), scale=0.05)
        return oracle_fork_differential(
            kernels, self._config(), subject="comd", n_sample_freqs=3,
            warmup_epochs=2,
        )

    def test_oracle_fork_differential_identical(self):
        report = self._oracle_fork_report()
        assert report.ok, report.render()
        assert report.sides == ("snapshot-fork", "replay")

    def test_oracle_fork_differential_catches_a_broken_fork(self, monkeypatch):
        """The replay side shares no copy code with the fork: a restore
        that leaves the memory system as the last sample left it shows."""
        from repro.gpu.memory import MemorySubsystem

        monkeypatch.setattr(MemorySubsystem, "restore_capture", lambda self, cap: None)
        report = self._oracle_fork_report()
        assert not report.ok
        assert all(m.field.startswith("sample[") for m in report.mismatches)


# ----------------------------------------------------------------------
# Property suites (Hypothesis, derandomised)

_LINES = st.builds(
    LinearSensitivity,
    i0=st.floats(-1e6, 1e6, allow_nan=False),
    slope=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestPCTableProperties:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 600), st.integers(0, 600), _LINES),
            max_size=150,
        ),
        weight=st.sampled_from([1.0, 0.5, 0.25]),
    )
    @DETERMINISTIC
    def test_table_matches_reference_model(self, ops, weight):
        """Random update/lookup streams: the direct-mapped table and the
        dict-backed spec agree on every returned line and counter."""
        cfg = PCTableConfig(n_entries=8, update_weight=weight)
        real, model = PCTable(cfg), PCTableModel(cfg)
        for update_pc, lookup_pc, line in ops:
            real.update(update_pc, line)
            model.update(update_pc, line)
            assert real.lookup(lookup_pc) == model.lookup(lookup_pc)
        assert (real.lookups, real.hits, real.updates, real.evictions) == (
            model.lookups, model.hits, model.updates, model.evictions
        )
        assert real.hit_ratio == model.hit_ratio
        assert real.occupancy == model.occupancy

    @given(
        pcs=st.lists(st.integers(0, 10_000), max_size=100),
        n_entries=st.sampled_from([1, 8, 128]),
    )
    @DETERMINISTIC
    def test_counter_bounds_hold(self, pcs, n_entries):
        table = PCTable(PCTableConfig(n_entries=n_entries))
        for pc in pcs:
            table.update(pc, LinearSensitivity(1.0, 1.0))
            table.lookup(pc)
        assert 0 <= table.hits <= table.lookups
        assert 0 <= table.evictions <= table.updates
        assert 0.0 <= table.hit_ratio <= 1.0
        assert 0.0 <= table.occupancy <= 1.0
        assert audit_pc_table(table) == []

    @given(pc=st.integers(0, 10_000))
    @DETERMINISTIC
    def test_lookup_after_update_same_pc_always_hits(self, pc):
        table = PCTable(PCTableConfig(n_entries=8))
        line = LinearSensitivity(3.0, -1.0)
        table.update(pc, line)
        assert table.lookup(pc) == line
        assert table.hits == 1


class TestSensitivityProperties:
    @given(
        line=_LINES,
        freqs=st.lists(st.floats(0.5, 3.0, allow_nan=False),
                       min_size=2, max_size=10),
    )
    @DETERMINISTIC
    def test_prediction_bounds(self, line, freqs):
        assert check_sensitivity_bounds(line, freqs) == []

    @given(line=_LINES)
    @DETERMINISTIC
    def test_wire_round_trip(self, line):
        assert sensitivity_round_trips(line)


_NN_INT = st.integers(0, 10**9)
_NS = st.floats(0, 1e9, allow_nan=False, allow_infinity=False)

_CU_STATS = st.builds(
    CuEpochStats,
    committed=_NN_INT, committed_compute=_NN_INT, committed_memory=_NN_INT,
    issued=_NN_INT, core_busy_ns=_NS,
    loads=_NN_INT, stores=_NN_INT,
)



@st.composite
def _epoch_results(draw):
    n_cus = draw(st.integers(1, 3))
    t_start = draw(_NS)
    duration = draw(st.floats(1.0, 1e6, allow_nan=False))
    cu_stats = tuple(draw(_CU_STATS) for _ in range(n_cus))
    wave_records = tuple(
        tuple(
            WaveEpochRecord(
                wf_id=w, age_rank=draw(st.integers(0, 7)),
                start_pc_idx=draw(st.integers(0, 10_000)),
                next_pc_idx=draw(st.integers(0, 10_000)),
                committed=draw(_NN_INT), stall_ns=draw(_NS),
                store_stall_ns=draw(_NS), barrier_stall_ns=draw(_NS),
                leading_load_ns=draw(_NS), critical_mem_ns=draw(_NS),
            )
            for w in range(draw(st.integers(0, 2)))
        )
        for _ in range(n_cus)
    )
    return EpochResult(
        t_start=t_start,
        t_end=t_start + duration,
        frequencies_ghz=tuple(
            draw(st.sampled_from(GRID)) for _ in range(n_cus)
        ),
        cu_stats=cu_stats,
        wave_records=wave_records,
        transitions=draw(st.integers(0, 10)),
    )


class TestWireCodecProperties:
    @given(result=_epoch_results())
    @DETERMINISTIC
    def test_epoch_result_round_trip(self, result):
        assert epoch_result_round_trips(result)

    def test_real_epoch_round_trips(self):
        from repro.gpu.gpu import Gpu
        from repro.gpu.kernel import Kernel, WorkgroupGeometry

        from helpers import make_loop_program

        cfg = small_config(n_cus=2, waves_per_cu=4)
        gpu = Gpu(cfg.gpu, 1.7)
        gpu.load_kernel(
            Kernel.homogeneous(make_loop_program(trips=500),
                               WorkgroupGeometry(4, 2))
        )
        assert epoch_result_round_trips(gpu.run_epoch(1000.0))


class TestResidencyProperties:
    @given(
        epochs=st.lists(
            st.lists(st.sampled_from(GRID), min_size=1, max_size=4),
            max_size=20,
        ),
        noise=st.floats(-1e-7, 1e-7, allow_nan=False),
    )
    @DETERMINISTIC
    def test_normalised_over_grid_despite_float_noise(self, epochs, noise):
        log = ControllerLog()
        for freqs in epochs:
            log.chosen_freqs.append([f + noise for f in freqs])
            log.predictions.append([None] * len(freqs))
        res = log.frequency_residency(GRID)
        assert set(res) == set(GRID)
        assert sum(res.values()) == pytest.approx(1.0 if epochs else 0.0)
        assert all(0.0 <= share <= 1.0 for share in res.values())
