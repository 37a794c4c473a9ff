"""The exact JSON codec for ``RunResult`` (sweep wire and result cache).

A result leaves its process only in this form, so these tests pin that
it is exact (every bit of every float, every type) and that anything it
cannot carry exactly is refused with ``ValueError`` in both directions.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.dvfs.simulation import RunResult
from repro.power.energy import EnergyBreakdown
from repro.runtime.cache import canonicalize
from repro.runtime.executor import SweepTask, run_task
from repro.runtime.profiling import HotPathCounters
from repro.telemetry.schema import run_result_from_wire, run_result_to_wire

from helpers import make_run_result

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=200)

#: Floats that a lossy text form would bend: signed zero, subnormals,
#: the largest magnitudes, and values with a full 17-digit repr.
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
               1.7976931348623157e308, 0.1 + 0.2, 1 / 3)

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
optional_floats = st.one_of(st.none(), floats)
counts = st.integers(min_value=-(2**70), max_value=2**70)
FULL_HOTPATH = {name: 1000 + i for i, name in enumerate(HotPathCounters().as_dict())}
hotpaths = st.one_of(
    st.sampled_from([None, {}, FULL_HOTPATH]),
    st.dictionaries(st.text(max_size=12), counts, max_size=12),
)


@st.composite
def run_results(draw) -> RunResult:
    return RunResult(
        design=draw(st.text(max_size=20)),
        workload=draw(st.text(max_size=20)),
        epochs=draw(counts),
        delay_ns=draw(floats),
        energy=EnergyBreakdown(draw(floats), draw(floats), draw(floats), draw(floats)),
        prediction_accuracy=draw(optional_floats),
        frequency_residency=draw(st.dictionaries(floats, floats, max_size=12)),
        total_committed=draw(counts),
        total_transitions=draw(counts),
        pc_hit_ratio=draw(optional_floats),
        completed=draw(st.booleans()),
        hotpath=draw(hotpaths),
    )


def exact(value):
    """A structure that compares equal only for bit-identical values of
    the same types (floats by ``float.hex``, dicts in their order)."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                [(f.name, exact(getattr(value, f.name))) for f in dataclasses.fields(value)])
    if isinstance(value, dict):
        return ("dict", [(exact(k), exact(v)) for k, v in value.items()])
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


class TestExactRoundTrip:
    @DETERMINISTIC
    @given(result=run_results())
    def test_every_field_survives_bit_for_bit(self, result):
        text = run_result_to_wire(result)
        clone = run_result_from_wire(text)
        assert exact(clone) == exact(result)
        assert run_result_to_wire(clone) == text

    def test_what_the_lossy_dict_dropped_survives(self):
        result = make_run_result(
            delay_ns=-0.0,
            energy=EnergyBreakdown(1.0, 2.0, 3.0, elapsed_ns=123456.789),
            frequency_residency={1.301: 0.5, 1.304: 0.5},  # equal at .2f
            prediction_accuracy=None,
            epochs=7,
        )
        clone = run_result_from_wire(run_result_to_wire(result))
        assert math.copysign(1.0, clone.delay_ns) == -1.0
        assert clone.energy.elapsed_ns == 123456.789
        assert list(clone.frequency_residency) == [1.301, 1.304]
        assert clone.prediction_accuracy is None
        assert type(clone.epochs) is int

    @pytest.mark.parametrize("workload", ["xsbench", "dgemm"])
    @pytest.mark.parametrize("design", ["STATIC@1.7", "PCSTALL", "ORACLE"])
    def test_real_cells_round_trip(self, workload, design):
        task = SweepTask(workload, design, small_config(n_cus=2, waves_per_cu=4),
                         scale=0.1, max_epochs=60, oracle_sample_freqs=3)
        result = run_task(task)
        clone = run_result_from_wire(run_result_to_wire(result))
        assert clone == result
        assert exact(clone) == exact(result)
        assert json.dumps(canonicalize(clone)) == json.dumps(canonicalize(result))


def _wire(**changes):
    """The wire dict of :func:`make_run_result` with ``changes`` applied."""
    wire = json.loads(run_result_to_wire(make_run_result()))
    wire.update(changes)
    return wire


class TestRefusals:
    @pytest.mark.parametrize("changes", [
        {"delay_ns": math.nan},
        {"delay_ns": math.inf},
        {"pc_hit_ratio": -math.inf},
        {"energy": EnergyBreakdown(1.0, math.nan, 0.0, 0.0)},
        {"frequency_residency": {1.7: math.nan}},
        {"frequency_residency": {math.inf: 1.0}},
        {"epochs": 12.0},
        {"total_committed": True},
        {"completed": 1},
        {"design": None},
        {"hotpath": {"cycles": 1.5}},
        {"hotpath": {3: 1}},
        {"frequency_residency": [(1.7, 1.0)]},
    ])
    def test_encoder_refuses_what_it_cannot_carry(self, changes):
        with pytest.raises(ValueError):
            run_result_to_wire(make_run_result(**changes))

    @pytest.mark.parametrize("value", [None, {"design": "x"}, b"{}", 42])
    def test_encoder_refuses_non_results(self, value):
        with pytest.raises(ValueError):
            run_result_to_wire(value)

    @pytest.mark.parametrize("text", [
        run_result_to_wire(make_run_result()).replace("11234.5", "NaN"),
        run_result_to_wire(make_run_result()).replace("11234.5", "Infinity"),
        run_result_to_wire(make_run_result()).replace("11234.5", "-Infinity"),
        run_result_to_wire(make_run_result()).replace("11234.5", "1e999"),
        run_result_to_wire(make_run_result())[:-5],
        "",
        "[]",
        "[" * 100_000,
    ])
    def test_decoder_refuses_bad_text(self, text):
        with pytest.raises(ValueError):
            run_result_from_wire(text)

    @pytest.mark.parametrize("wire", [
        _wire(epochs=12.0),
        _wire(epochs="12"),
        _wire(delay_ns="11234.5"),
        _wire(delay_ns=True),
        _wire(completed=0),
        _wire(prediction_accuracy=[0.5]),
        _wire(workload=None),
        _wire(energy={"cu_dynamic_and_leakage": 1.0}),
        _wire(energy=[1.0, 2.0, 3.0, 4.0]),
        _wire(frequency_residency={"1.7": 1.0}),
        _wire(frequency_residency=[[1.7]]),
        _wire(frequency_residency=[[1.7, 0.5], [1.7, 0.5]]),
        _wire(frequency_residency=[[1.7, None]]),
        _wire(hotpath={"cycles": 1.0}),
        _wire(hotpath=[1, 2]),
        _wire(extra=1),
        {k: v for k, v in _wire().items() if k != "hotpath"},
    ])
    def test_decoder_checks_types_and_converts_nothing(self, wire):
        with pytest.raises(ValueError):
            run_result_from_wire(json.dumps(wire))

    @pytest.mark.parametrize("value", [None, b"{}", 3, {"design": "x"}])
    def test_decoder_takes_only_text(self, value):
        with pytest.raises(ValueError):
            run_result_from_wire(value)
