"""Observability: span tracing, drift monitoring, Prometheus, logging.

An offline run and the online decision service share one
observability stack, each observed in its own process:

* :mod:`repro.obs.trace` - hierarchical span tracer for one process
  (run -> epoch -> oracle_sample; session -> request -> decision),
  zero-overhead when disabled, writing each finished span into the
  record stream it observes;
* :mod:`repro.obs.drift` - rolling-window drift monitor over prediction
  error and shed rate, alerting into the record stream, metrics and
  logs;
* :mod:`repro.obs.prom` - Prometheus text exposition (v0.0.4) for the
  :class:`~repro.telemetry.metrics.MetricsRegistry`, plus the parser CI
  uses as a scrape gate;
* :mod:`repro.obs.log` - structured logging (``--log-level`` /
  ``--log-json``);
* :mod:`repro.obs.monitor` - the ``repro monitor`` live summary engine.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.drift import SIGNAL_REL_ERROR, SIGNAL_SHED_RATE, DriftAlert, DriftMonitor
    from repro.obs.log import configure_logging, get_logger
    from repro.obs.monitor import (
        IntervalSummary,
        diff_metrics,
        fetch_metrics,
        iter_jsonl,
        summarize_records,
    )
    from repro.obs.prom import (
        CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
        ExpositionError,
        parse_exposition,
        render_prometheus,
        sanitise_name,
    )
    from repro.obs.trace import SPAN_RECORD_TYPE, Span, Tracer

__getattr__, __dir__ = lazy_exports(__name__, {
    "drift": ("SIGNAL_REL_ERROR", "SIGNAL_SHED_RATE", "DriftAlert", "DriftMonitor"),
    "log": ("configure_logging", "get_logger"),
    "monitor": ("IntervalSummary", "diff_metrics", "fetch_metrics", "iter_jsonl",
                "summarize_records"),
    "prom": ("PROMETHEUS_CONTENT_TYPE:CONTENT_TYPE", "ExpositionError", "parse_exposition",
             "render_prometheus", "sanitise_name"),
    "trace": ("SPAN_RECORD_TYPE", "Span", "Tracer"),
})

__all__ = [
    "DriftAlert",
    "DriftMonitor",
    "ExpositionError",
    "IntervalSummary",
    "PROMETHEUS_CONTENT_TYPE",
    "SIGNAL_REL_ERROR",
    "SIGNAL_SHED_RATE",
    "SPAN_RECORD_TYPE",
    "Span",
    "Tracer",
    "configure_logging",
    "diff_metrics",
    "fetch_metrics",
    "get_logger",
    "iter_jsonl",
    "parse_exposition",
    "render_prometheus",
    "sanitise_name",
    "summarize_records",
]
