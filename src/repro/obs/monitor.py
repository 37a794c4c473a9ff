"""Live monitoring: tail a span/observation JSONL or poll ``/metrics``.

``repro monitor`` renders one summary line per interval so an operator
(or a CI log) can watch a sweep or a serving session as it runs:

* **File mode** (``repro monitor FILE``): tails a JSONL record stream,
  a run's (``repro trace --trace``: epochs with their spans and drift
  alerts interleaved as they happen) or a serving process's (``repro
  serve --trace``), and summarises the records that arrived in each
  interval (epochs, spans, mean relative error, drift alerts, slowest
  span).
* **HTTP mode** (``repro monitor --url HOST:PORT``): polls a live
  decision service's ``/metrics`` endpoint and prints per-interval
  *deltas* of the headline counters (requests, decisions, sheds, drift
  alerts) - i.e. rates, not lifetime totals.

Both modes are pure functions over (records | snapshots) -> line, so
tests drive them without sleeping; the CLI wraps them in the actual
tail/poll loop.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, TextIO


@dataclass
class IntervalSummary:
    """What one monitoring interval saw (file mode)."""

    records: int = 0
    epochs: int = 0
    domains: int = 0
    spans: int = 0
    observations: int = 0
    alerts: int = 0
    recoveries: int = 0
    #: Signals that alerted this interval.
    alert_signals: List[str] = field(default_factory=list)
    #: Sum/count of rel_error over this interval's domain records.
    _err_sum: float = 0.0
    _err_n: int = 0
    #: Mispredictions / decisions this interval.
    mispredicted: int = 0
    decisions: int = 0
    #: Longest span seen this interval: (name, duration_ns).
    slowest_span: Optional[tuple] = None

    def add(self, record: Mapping[str, object]) -> None:
        self.records += 1
        rtype = record.get("type")
        if rtype == "epoch":
            self.epochs += 1
        elif rtype == "domain":
            self.domains += 1
            err = record.get("rel_error")
            if err is not None:
                self._err_sum += float(err)  # type: ignore[arg-type]
                self._err_n += 1
            missed = record.get("mispredicted")
            if missed is not None:
                self.decisions += 1
                if missed:
                    self.mispredicted += 1
        elif rtype == "span":
            self.spans += 1
            t0, t1 = record.get("t_start_ns"), record.get("t_end_ns")
            if t0 is not None and t1 is not None:
                dur = int(t1) - int(t0)  # type: ignore[arg-type]
                if self.slowest_span is None or dur > self.slowest_span[1]:
                    self.slowest_span = (record.get("name"), dur)
        elif rtype == "alert":
            if record.get("kind") == "recovered":
                self.recoveries += 1
            else:
                self.alerts += 1
                self.alert_signals.append(str(record.get("signal")))
        elif rtype == "observation":
            self.observations += 1

    @property
    def mean_rel_error(self) -> Optional[float]:
        return self._err_sum / self._err_n if self._err_n else None

    def render(self, stamp: Optional[str] = None) -> str:
        parts = [f"records={self.records}"]
        if self.epochs:
            parts.append(f"epochs={self.epochs}")
        if self.spans:
            parts.append(f"spans={self.spans}")
        err = self.mean_rel_error
        if err is not None:
            parts.append(f"err={err:.3f}")
        if self.decisions:
            parts.append(f"miss={self.mispredicted}/{self.decisions}")
        if self.alerts:
            parts.append(f"ALERTS={self.alerts}({','.join(self.alert_signals)})")
        if self.recoveries:
            parts.append(f"recovered={self.recoveries}")
        if self.slowest_span is not None:
            name, dur = self.slowest_span
            parts.append(f"slowest={name}:{dur / 1e6:.2f}ms")
        prefix = f"[{stamp}] " if stamp else ""
        return prefix + " ".join(parts)


def summarize_records(records) -> IntervalSummary:
    """Fold an iterable of trace records into one interval summary."""
    summary = IntervalSummary()
    for record in records:
        summary.add(record)
    return summary


def iter_jsonl(
    fh: TextIO,
    follow: bool = False,
    poll_s: float = 0.2,
    idle_limit_s: Optional[float] = None,
) -> Iterator[Optional[Dict[str, object]]]:
    """Yield records from a JSONL stream; ``None`` marks an idle poll.

    With ``follow=False`` the iterator stops at EOF. With
    ``follow=True`` it keeps polling (tail -f); ``idle_limit_s`` bounds
    how long it waits without new data before giving up (None = forever).
    Partial trailing lines (a writer mid-append) are retried, not
    errored.
    """
    pending = ""
    idle_since: Optional[float] = None
    while True:
        chunk = fh.readline()
        if chunk:
            pending += chunk
            if not pending.endswith("\n"):
                continue  # torn tail: wait for the rest of the line
            line, pending = pending.strip(), ""
            idle_since = None
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue  # torn or foreign line: skip, keep tailing
            continue
        if not follow:
            return
        now = time.monotonic()
        if idle_since is None:
            idle_since = now
        elif idle_limit_s is not None and now - idle_since >= idle_limit_s:
            return
        yield None
        time.sleep(poll_s)


#: /metrics counters the HTTP mode tracks as per-interval deltas.
POLL_COUNTERS = (
    ("service_requests", "req"),
    ("service_decisions", "dec"),
    ("service_shed", "shed"),
    ("service_out_of_order", "ooo"),
    ("drift_alerts_total", "ALERTS"),
)


def diff_metrics(
    prev: Optional[Mapping[str, object]], cur: Mapping[str, object]
) -> str:
    """One line of counter deltas between two ``/metrics`` snapshots."""

    def counters(snapshot: Mapping[str, object]) -> Dict[str, float]:
        raw = snapshot.get("counters", {})
        return {k: float(v) for k, v in dict(raw).items()}  # type: ignore[arg-type]

    cur_c = counters(cur)
    prev_c = counters(prev) if prev is not None else {}
    parts = []
    for name, label in POLL_COUNTERS:
        delta = cur_c.get(name, 0.0) - prev_c.get(name, 0.0)
        if delta or label in ("req", "dec"):
            parts.append(f"{label}=+{delta:.0f}")
    sessions = cur.get("sessions")
    if sessions is not None:
        parts.append(f"sessions={sessions}")
    gauges = dict(cur.get("gauges", {}))
    for name, value in sorted(gauges.items()):
        if str(name).startswith("drift_") and str(name).endswith("_level"):
            signal = str(name)[len("drift_"):-len("_level")]
            parts.append(f"{signal}={float(value):.3f}")  # type: ignore[arg-type]
    return " ".join(parts)


def fetch_metrics(
    host: str, port: int, timeout_s: float = 5.0
) -> Dict[str, object]:
    """GET ``/metrics`` (JSON form) from a live service."""
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


__all__ = [
    "IntervalSummary",
    "POLL_COUNTERS",
    "diff_metrics",
    "fetch_metrics",
    "iter_jsonl",
    "summarize_records",
]
