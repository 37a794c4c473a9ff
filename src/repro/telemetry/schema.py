"""Trace record schema: self-describing metadata plus validation.

Every archived telemetry artifact - the epoch JSONL stream, the Perfetto
trace, ``repro run --json`` summaries - embeds a ``meta`` block built by
:func:`build_meta`:

* ``schema_version`` - bumped whenever a record field changes meaning,
* ``repro_version`` - the package that produced the artifact,
* ``engine`` / ``config_hash`` - which timing engine and exactly which
  platform configuration (the same canonical content hash the result
  cache keys on), so archived traces are attributable long after the
  defaults move.

:func:`check_meta` is the read-side counterpart; :func:`validate_records`
/ :func:`validate_trace_file` gate a whole record stream (CI runs the
file-level check on the bench-smoke artifact). :class:`JsonlWriter` is
the one writer of a stream: the header first, then one sort-keyed JSON
object per line.

A stream holds exactly one header, as its first record:

``run``
    A run's stream (:class:`~repro.telemetry.recorder.EpochTraceRecorder`):
    the meta block plus run identity (workload, design, objective,
    domain count, epoch length, frequency grid).
``trace``
    A serving process's stream (``repro serve --trace``): the bare meta
    block.

After it come a run's own records, which carry simulated time only:

``epoch``
    One per recorded epoch: sim-clock window, epoch energy, V/f
    transitions, total commits, PC-table deltas
    (lookups/hits/updates/evictions over that epoch).
``domain``
    One per (epoch, V/f domain): chosen frequency, predicted sensitivity
    line and commit count, actual commits, relative error, oracle truth
    (fitted line, r^2, the frequency the objective would have chosen
    given the truth) when sampling ran, and the stall/busy split.
``pc``
    Aggregated per-PC prediction-error attribution, emitted at end of
    run (one line per distinct start PC).
``summary``
    Final :class:`~repro.dvfs.simulation.RunResult` digest.
``observation``
    Opt-in (``TelemetryConfig.record_observations``): the *complete*
    predictor input of one elapsed epoch - the
    :class:`~repro.gpu.gpu.EpochResult` in wire form
    (:func:`epoch_result_to_wire`) plus the oracle truth lines when
    sampling ran. With these, ``repro replay`` can re-drive a live
    decision service through the exact offline epoch sequence; the run
    header additionally embeds the full ``sim_config`` so the server
    can rebuild an identical controller. Observation records are
    streamed to the JSONL file only (never the in-memory ring - one
    record carries every wavefront's counters and would evict the
    timeline the ring exists for).

and, written into either stream as they happen:

``span``
    One finished wall-clock span (``repro.obs.trace.Tracer``): name,
    tracer-scoped monotonic span id, parent span id (empty string at
    the root), start/end wall nanoseconds, free-form ``attrs``.
``alert``
    A drift monitor threshold crossing or recovery
    (``repro.obs.drift.DriftAlert.as_record``).
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

if TYPE_CHECKING:  # imported where used, like this module's other repro imports
    from repro.config import SimConfig
    from repro.dvfs.simulation import RunResult

PathLike = Union[str, pathlib.Path]

#: Bump when a record field is added/removed or changes meaning.
#: Version 2: an observation's wave records are flat 10-value lists and
#: its CU captures carry 7 values. Version 3: epoch records carry no
#: wall-clock seconds, and spans and the ``trace`` header no trace id.
TRACE_SCHEMA_VERSION = 3

#: The record types that open a stream; a stream holds exactly one.
HEADER_TYPES = ("run", "trace")

#: Fields every record of a type must carry (value may be null where
#: the quantity is undefined, e.g. no prediction yet).
REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "run": ("type", "schema_version", "repro_version", "workload", "design",
            "n_domains", "epoch_ns", "frequencies_ghz"),
    "epoch": ("type", "epoch", "t_start_ns", "t_end_ns", "energy",
              "transitions", "committed"),
    "domain": ("type", "epoch", "domain", "freq_ghz", "pred_commits",
               "actual_commits", "rel_error", "oracle_freq_ghz",
               "mispredicted", "busy_ns", "stall_ns", "committed"),
    "pc": ("type", "pc_idx", "samples", "committed", "weighted_error"),
    "summary": ("type", "workload", "design", "epochs", "delay_ns",
                "energy_total"),
    "observation": ("type", "epoch", "result"),
    "trace": ("type", "schema_version", "repro_version"),
    "span": ("type", "span_id", "parent_id", "name", "t_start_ns", "t_end_ns"),
    "alert": ("type", "signal", "kind", "value", "threshold",
              "window_count", "at_index"),
}


def epoch_result_to_wire(result: Any) -> Dict[str, object]:
    """JSON-encodable form of an :class:`~repro.gpu.gpu.EpochResult`.

    Each CU's stats travel as their flat ``capture()`` tuple (the one the
    GPU snapshot machinery uses) and each wave record as one flat list in
    :class:`~repro.gpu.gpu.WaveEpochRecord` field order. Python's
    ``json`` emits shortest-repr floats, which round-trip IEEE binary64
    exactly - decoding the wire form reconstructs a result whose every
    float is bit-identical to the original
    (``repro.service.protocol.epoch_result_from_wire`` is the inverse).
    """
    return {
        "t_start": result.t_start,
        "t_end": result.t_end,
        "frequencies_ghz": list(result.frequencies_ghz),
        "transitions": result.transitions,
        "cu_stats": [list(s.capture()) for s in result.cu_stats],
        "wave_records": [
            [list(r) for r in cu_records] for cu_records in result.wave_records
        ],
    }


def sim_config_to_wire(config: Any) -> Dict[str, object]:
    """JSON-encodable form of a :class:`~repro.config.SimConfig`.

    The exact canonical structure the result cache hashes (see
    :func:`repro.runtime.cache.config_hash`), so a trace's embedded
    config and its ``config_hash`` meta field always agree.
    """
    from repro.runtime.cache import canonicalize

    wire = canonicalize(config)
    if not isinstance(wire, dict):  # pragma: no cover - SimConfig is a dataclass
        raise TypeError(f"config did not canonicalise to a mapping: {config!r}")
    return wire


def sim_config_from_wire(wire: Mapping[str, Any]) -> "SimConfig":
    """Rebuild a :class:`~repro.config.SimConfig` from its wire form.

    Inverse of :func:`sim_config_to_wire`. Field names are applied as
    keyword arguments, so an unknown field (a config from a different
    repro version) fails loudly instead of being silently dropped; any
    malformed payload is a :class:`~repro.runtime.wire.ProtocolError`.
    """
    from repro.config import DvfsConfig, GpuConfig, MemoryConfig, PowerConfig, SimConfig
    from repro.runtime.wire import ProtocolError

    try:
        gpu_wire = dict(wire["gpu"])
        gpu_wire["memory"] = MemoryConfig(**wire["gpu"]["memory"])
        dvfs_wire = dict(wire["dvfs"])
        dvfs_wire["frequencies_ghz"] = tuple(dvfs_wire["frequencies_ghz"])
        return SimConfig(
            gpu=GpuConfig(**gpu_wire),
            dvfs=DvfsConfig(**dvfs_wire),
            power=PowerConfig(**wire["power"]),
            seed=int(wire["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed sim config: {exc}") from None


# RunResult fields carried as plain JSON values, each with the exact
# types it may hold: a bool is not an int, an int is not a float, and
# decoding converts nothing.
_NUMBER = (int, float)
_OPTIONAL_NUMBER = (int, float, type(None))
_RESULT_SCALARS: Tuple[Tuple[str, Tuple[type, ...]], ...] = (
    ("design", (str,)),
    ("workload", (str,)),
    ("epochs", (int,)),
    ("delay_ns", _NUMBER),
    ("prediction_accuracy", _OPTIONAL_NUMBER),
    ("total_committed", (int,)),
    ("total_transitions", (int,)),
    ("pc_hit_ratio", _OPTIONAL_NUMBER),
    ("completed", (bool,)),
)
_ENERGY_FIELDS = ("cu_dynamic_and_leakage", "memory", "transitions", "elapsed_ns")
_RESULT_KEYS = frozenset(
    [name for name, _ in _RESULT_SCALARS] + ["energy", "frequency_residency", "hotpath"]
)


def _refuse_constant(name: str) -> object:
    raise ValueError(f"{name} is not a finite number")


#: The JSON decoder for what crosses a process boundary (wire frames,
#: result payloads, cache entries): no encoder here writes NaN or
#: +-Infinity, so reading one is a ``ValueError``.
FINITE_JSON = json.JSONDecoder(parse_constant=_refuse_constant)


def _check_value(where: str, value: object, types: Tuple[type, ...]) -> None:
    if type(value) not in types:
        expected = "/".join(t.__name__ for t in types)
        raise ValueError(f"{where} is {type(value).__name__}, not {expected}")
    if isinstance(value, float) and not math.isfinite(value):  # e.g. a 1e999 literal
        raise ValueError(f"{where} is not finite: {value!r}")


def _check_result_wire(wire: object) -> None:
    """Raise ``ValueError`` unless ``wire`` is exactly a RunResult's form."""
    if not isinstance(wire, dict) or wire.keys() != _RESULT_KEYS:
        raise ValueError(f"not a RunResult form: {str(wire)[:80]!r}")
    for name, types in _RESULT_SCALARS:
        _check_value(name, wire[name], types)
    energy = wire["energy"]
    if not isinstance(energy, dict) or energy.keys() != set(_ENERGY_FIELDS):
        raise ValueError(f"energy is not an EnergyBreakdown form: {energy!r}")
    for name in _ENERGY_FIELDS:
        _check_value(f"energy.{name}", energy[name], _NUMBER)
    residency = wire["frequency_residency"]
    if not isinstance(residency, list):
        raise ValueError("frequency_residency is not a list of [f, share] pairs")
    for pair in residency:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"frequency_residency entry {pair!r} is not an [f, share] pair")
        _check_value("frequency_residency f", pair[0], _NUMBER)
        _check_value("frequency_residency share", pair[1], _NUMBER)
    if len({f for f, _ in residency}) != len(residency):
        raise ValueError("frequency_residency repeats a frequency")
    hotpath = wire["hotpath"]
    if hotpath is not None:
        if not isinstance(hotpath, dict):
            raise ValueError(f"hotpath is {type(hotpath).__name__}, not dict/None")
        for name, count in hotpath.items():
            _check_value("hotpath key", name, (str,))  # JSON would stringify it
            _check_value(f"hotpath[{name!r}]", count, (int,))


def run_result_to_wire(result: Any) -> str:
    """Exact JSON text of a :class:`~repro.dvfs.simulation.RunResult`.

    The only form a result takes outside its process: the payload of
    the sweep broker's ``result`` frame and the content of a
    :class:`~repro.runtime.cache.ResultCache` entry. Floats are JSON
    numbers written with ``repr``, so every bit survives (``-0.0``
    included); residency travels as ``[f, share]`` pairs in grid order;
    the :class:`~repro.power.energy.EnergyBreakdown` travels whole.
    Raises ``ValueError`` for a result this form cannot carry exactly
    (a NaN or infinity, a wrongly typed field), so whatever encodes
    decodes to an equal result.
    """
    try:
        wire = {name: getattr(result, name) for name, _ in _RESULT_SCALARS}
        wire["energy"] = {name: getattr(result.energy, name) for name in _ENERGY_FIELDS}
        wire["frequency_residency"] = [
            [f, share] for f, share in result.frequency_residency.items()
        ]
        wire["hotpath"] = result.hotpath
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"not a RunResult: {exc}") from None
    _check_result_wire(wire)
    return json.dumps(wire, separators=(",", ":"), allow_nan=False)


def run_result_from_wire(text: object) -> "RunResult":
    """Inverse of :func:`run_result_to_wire`.

    Checks every type and converts nothing, so an int stays an int, a
    float a float and ``None`` ``None``. Anything else - text that is
    not JSON, a NaN or infinity, a missing, extra or wrongly typed
    field - raises ``ValueError``.
    """
    from repro.dvfs.simulation import RunResult
    from repro.power.energy import EnergyBreakdown

    if not isinstance(text, str):
        raise ValueError(f"a RunResult travels as JSON text, not {type(text).__name__}")
    try:
        wire = FINITE_JSON.decode(text)
    except RecursionError as exc:
        raise ValueError(f"RunResult JSON nests too deep: {exc}") from None
    _check_result_wire(wire)
    return RunResult(
        energy=EnergyBreakdown(**wire["energy"]),
        frequency_residency={f: share for f, share in wire["frequency_residency"]},
        hotpath=wire["hotpath"],
        **{name: wire[name] for name, _ in _RESULT_SCALARS},
    )


def build_meta(config=None, **extra) -> Dict[str, object]:
    """Self-describing metadata block for a telemetry artifact.

    ``config`` is a :class:`~repro.config.SimConfig`; when given, the
    engine name and the canonical config hash are embedded. ``extra``
    key/values (workload, design, ...) are passed through.
    """
    from repro import __version__
    meta: Dict[str, object] = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "repro_version": __version__,
    }
    if config is not None:
        from repro.runtime.cache import config_hash

        meta["engine"] = config.gpu.engine
        meta["config_hash"] = config_hash(config)
    meta.update(extra)
    return meta


def check_meta(meta: Mapping[str, object]) -> Dict[str, object]:
    """Validate a meta block; returns it, raises ``ValueError`` if bad."""
    if not isinstance(meta, Mapping):
        raise ValueError(f"meta must be a mapping, got {type(meta).__name__}")
    version = meta.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported telemetry schema version {version!r} "
            f"(this build reads version {TRACE_SCHEMA_VERSION})"
        )
    if not meta.get("repro_version"):
        raise ValueError("meta lacks repro_version")
    return dict(meta)


def validate_record(record: Mapping[str, object]) -> str:
    """Validate one record; returns its type, raises ``ValueError``."""
    rtype = record.get("type")
    required = REQUIRED_FIELDS.get(str(rtype))
    if required is None:
        raise ValueError(f"unknown record type {rtype!r}")
    missing = [f for f in required if f not in record]
    if missing:
        raise ValueError(f"{rtype} record missing fields: {missing}")
    if rtype in HEADER_TYPES:
        check_meta(record)
    return str(rtype)


def validate_records(records: Iterable[Mapping[str, object]]) -> Dict[str, int]:
    """Validate a record stream; returns per-type counts.

    The stream holds exactly one header (``run`` or ``trace``), as its
    first record.
    """
    counts: Dict[str, int] = {}
    for index, record in enumerate(records):
        rtype = validate_record(record)
        if (rtype in HEADER_TYPES) != (index == 0):
            raise ValueError(
                f"record {index} is {rtype!r}: a stream holds exactly one "
                f"header (a run record or trace record), as its first record"
            )
        counts[rtype] = counts.get(rtype, 0) + 1
    if not counts:
        raise ValueError("empty record stream")
    return counts


class JsonlWriter:
    """Writes one record stream: ``header`` first, then one sort-keyed
    JSON object per line. The only writer of a stream's file. The file
    is line-buffered, so each record reaches it as it is written and a
    reader following a live stream sees it at once."""

    def __init__(self, path: PathLike, header: Mapping[str, object]) -> None:
        self._fh = open(path, "w", encoding="utf-8", buffering=1)
        self.write(header)

    def write(self, record: Mapping[str, object]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._fh.close()


def load_trace_jsonl(path: PathLike) -> List[Dict[str, object]]:
    """Read a JSONL record stream back as a list of record dicts."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON ({exc})") from None
    return records


def validate_trace_file(path: PathLike) -> Dict[str, int]:
    """Load and validate a JSONL trace; returns per-type record counts."""
    return validate_records(load_trace_jsonl(path))


def trace_meta(records: Iterable[Mapping[str, object]]) -> Optional[Dict[str, object]]:
    """The stream header's meta block (``run`` or ``trace``), if the
    stream has one."""
    for record in records:
        if record.get("type") in HEADER_TYPES:
            return check_meta(record)
    return None


__all__ = [
    "FINITE_JSON",
    "JsonlWriter",
    "TRACE_SCHEMA_VERSION",
    "REQUIRED_FIELDS",
    "build_meta",
    "epoch_result_to_wire",
    "run_result_from_wire",
    "run_result_to_wire",
    "sim_config_from_wire",
    "sim_config_to_wire",
    "check_meta",
    "validate_record",
    "validate_records",
    "validate_trace_file",
    "load_trace_jsonl",
    "trace_meta",
]
