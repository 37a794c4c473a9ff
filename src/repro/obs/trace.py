"""Hierarchical span tracing for one simulation run or serving process.

A :class:`Tracer` produces :class:`Span` records - named wall-clock
intervals with parent/child links - in the process that opened them::

    run                         (DvfsSimulation.run: repro trace --trace)
      epoch 0..N                (one per executed epoch)
        oracle_sample           (fork-and-pre-execute truth sampling)

    connect                     (DecisionService connection: repro serve --trace)
      session                   (the session the connection opened)
        request                 (one admitted observation)
          decision              (controller observe + decide)
        shed                    (a shed observation: a point event)

Design constraints, in priority order:

* **Zero overhead when off.** Every instrumented site holds an
  ``Optional[Tracer]`` and pays one ``is None`` branch when tracing is
  disabled; no tracer, span, or record object is allocated. Results
  are bit-identical either way - spans only *observe* wall time, they
  never feed back into a simulation or a decision.
* **Explicit parents.** :meth:`Tracer.start` nests a span under the
  ``parent`` it is given and opens a root span without one; no
  implicit "current span" is kept. :meth:`Tracer.event` is a span that
  finishes as it opens (a shed observation).
* **Monotonic ids.** Span ids are monotonic integers (``"1"``,
  ``"2"``, ...) unique within the tracer.
* **Wall-clock alignment.** Timing uses ``time.perf_counter_ns`` for
  precision, re-anchored to ``time.time_ns`` at tracer creation, so
  span timestamps are unix nanoseconds.
* **Keeps nothing.** Each finished span's record is handed to one
  ``write`` callable as it finishes: the epoch trace recorder's
  ``write`` (``repro trace --trace``), so spans land in the run's
  stream between the epochs they time, or a
  :class:`~repro.telemetry.schema.JsonlWriter`'s (``repro serve
  --trace``). With ``write=None`` spans are only counted: with a
  ``registry``, every finished span counts under ``trace_spans_total``
  and ``trace_spans_<name>``.

Spans stay in the process that observes them: a sweep cell that runs in
a worker process is timed by the sweep instrumentation, not traced.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Mapping, Optional

from repro.telemetry.metrics import MetricsRegistry

#: Record type emitted for every finished span (see telemetry.schema).
SPAN_RECORD_TYPE = "span"


class Span:
    """One named wall-clock interval; finished via :meth:`Tracer.finish`."""

    __slots__ = ("name", "span_id", "parent_id", "t_start_ns", "t_end_ns", "attrs")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: str,
        t_start_ns: int,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_start_ns = t_start_ns
        self.t_end_ns: Optional[int] = None
        self.attrs = attrs

    @property
    def done(self) -> bool:
        return self.t_end_ns is not None

    @property
    def duration_ns(self) -> int:
        if self.t_end_ns is None:
            raise ValueError(f"span {self.name!r} not finished")
        return self.t_end_ns - self.t_start_ns

    def as_record(self) -> Dict[str, object]:
        return {
            "type": SPAN_RECORD_TYPE,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t_start_ns": self.t_start_ns,
            "t_end_ns": self.t_end_ns,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # debugging aid only
        state = f"{self.duration_ns}ns" if self.done else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class Tracer:
    """Creates and times spans; hands each finished span's record to
    ``write``."""

    def __init__(
        self,
        write: Optional[Callable[[Mapping[str, object]], None]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.write = write
        self.registry = registry
        self._next_id = 0
        self.total_spans = 0
        # Map the monotonic perf clock onto the unix epoch once.
        self._unix_anchor_ns = time.time_ns()
        self._perf_anchor_ns = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # Span lifecycle

    def _now_ns(self) -> int:
        return self._unix_anchor_ns + (
            time.perf_counter_ns() - self._perf_anchor_ns
        )

    def _mint_id(self) -> str:
        self._next_id += 1
        return str(self._next_id)

    def start(
        self, name: str, parent: Optional[Span] = None, **attrs: object
    ) -> Span:
        """Open a span under ``parent``; ``parent=None`` opens a root
        span."""
        parent_id = parent.span_id if parent is not None else ""
        return Span(name, self._mint_id(), parent_id, self._now_ns(), attrs)

    def finish(self, span: Span, **attrs: object) -> Span:
        """Stamp the end time and write the record (idempotence guarded)."""
        if span.done:
            raise ValueError(f"span {span.name!r} already finished")
        if attrs:
            span.attrs.update(attrs)
        span.t_end_ns = self._now_ns()
        self.total_spans += 1
        if self.registry is not None:
            self.registry.inc("trace_spans_total")
            self.registry.inc(f"trace_spans_{span.name}")
        if self.write is not None:
            self.write(span.as_record())
        return span

    def event(
        self, name: str, parent: Optional[Span] = None, **attrs: object
    ) -> Span:
        """A point-in-time span (e.g. a shed observation), finished as
        it opens and counted like any other."""
        return self.finish(self.start(name, parent, **attrs))


__all__ = ["Span", "Tracer", "SPAN_RECORD_TYPE"]
