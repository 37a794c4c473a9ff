"""Telemetry: a zero-overhead-when-off observability layer.

Five pieces, threaded through the simulation loop, controller,
predictors, PC table, oracle and sweep runtime:

* :mod:`repro.telemetry.metrics` - :class:`MetricsRegistry`:
  counters/gauges/fixed-bucket histograms, the decision service's
  metrics (which ``/metrics`` exports).
* :mod:`repro.telemetry.recorder` - :class:`EpochTraceRecorder`: one
  structured record per epoch per V/f domain (chosen frequency,
  predicted vs actual commits, oracle truth, PC-table deltas,
  stall/busy split, energy) with bounded memory (ring buffer and/or
  streaming JSONL), and the run's one record stream: spans and drift
  alerts go into it through its ``write`` as they happen.
* :mod:`repro.telemetry.schema` - the record types, their validator
  and the one JSONL writer every stream is written through.
* :mod:`repro.telemetry.exporters` - Chrome-trace/Perfetto JSON export
  (``repro trace --perfetto FILE``).
* :mod:`repro.telemetry.accuracy` - prediction-error percentiles,
  decision confusion matrix vs the oracle, per-PC error attribution
  (``repro report``).

When no recorder is attached, the simulation pays a single ``is None``
test per epoch and allocates nothing - tier-1 results stay bit-identical
(see ``tests/test_telemetry.py``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.telemetry.accuracy import AccuracyReport, percentile
    from repro.telemetry.exporters import perfetto_trace, save_perfetto_json
    from repro.telemetry.metrics import (
        BATCH_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
    )
    from repro.telemetry.recorder import EpochTraceRecorder, PcErrorStat, TelemetryConfig
    from repro.telemetry.schema import (
        TRACE_SCHEMA_VERSION,
        build_meta,
        check_meta,
        epoch_result_to_wire,
        load_trace_jsonl,
        sim_config_to_wire,
        trace_meta,
        validate_records,
        validate_trace_file,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "accuracy": ("AccuracyReport", "percentile"),
    "exporters": ("perfetto_trace", "save_perfetto_json"),
    "metrics": ("BATCH_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "recorder": ("EpochTraceRecorder", "PcErrorStat", "TelemetryConfig"),
    "schema": ("TRACE_SCHEMA_VERSION", "build_meta", "check_meta", "epoch_result_to_wire",
               "load_trace_jsonl", "sim_config_to_wire", "trace_meta", "validate_records",
               "validate_trace_file"),
})

__all__ = [
    "AccuracyReport",
    "percentile",
    "perfetto_trace",
    "save_perfetto_json",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EpochTraceRecorder",
    "PcErrorStat",
    "TelemetryConfig",
    "BATCH_BUCKETS",
    "TRACE_SCHEMA_VERSION",
    "build_meta",
    "check_meta",
    "epoch_result_to_wire",
    "load_trace_jsonl",
    "sim_config_to_wire",
    "trace_meta",
    "validate_records",
    "validate_trace_file",
]
