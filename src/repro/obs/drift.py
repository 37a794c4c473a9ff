"""Online drift monitoring: rolling windows over quality signals.

The paper's predictive DVFS argument only holds while the predictor
stays accurate; post-hoc aggregates (``repro report``) show
*that* accuracy degraded, never *when*. :class:`DriftMonitor` watches
quality signals as they stream and raises a structured alert the moment
a rolling-window statistic crosses its threshold:

* ``rel_error`` - per-epoch relative prediction error (fed by the
  epoch trace recorder, one observation per scored domain-epoch);
* ``shed_rate`` - fraction of admitted-or-shed observations the
  decision service shed (fed per observe frame).

An alert is emitted when the window holds at least :data:`MIN_COUNT`
observations and its mean exceeds the signal's threshold; a cooldown
of one full window stops a persistently-degraded signal from alerting
on every subsequent observation. Recovery is announced once the mean
falls back under the threshold. Window sizing and thresholds are module
constants: no caller tunes them.

Alerts fan out to every attached sink, mirroring how other events in
this codebase are made visible:

* the **record stream** (one ``alert`` record per alert or recovery,
  handed to ``write`` as it fires - the epoch trace recorder's
  ``write`` in ``repro trace``, the span stream's writer in ``repro
  serve``; the Perfetto exporter pins it as an instant);
* the **metrics registry** (``drift_alerts_total``,
  ``drift_alerts_<signal>`` counters, ``drift_<signal>_level`` gauge);
* the **log** (a WARNING with structured fields).

The monitor is deliberately dependency-free and deterministic: plain
deques and float sums, no wall clock - the "time" of an alert is the
observation index, so a replayed stream alerts at exactly the same
points.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional

from repro.telemetry.metrics import MetricsRegistry

#: The signals the monitor watches.
SIGNAL_REL_ERROR = "rel_error"
SIGNAL_SHED_RATE = "shed_rate"

#: Observations per rolling window.
WINDOW = 64
#: Observations required before a window may alert (a two-sample spike
#: should not page anyone).
MIN_COUNT = 16
#: Observations to suppress re-alerts for after an alert fires: one full
#: fresh window of evidence.
COOLDOWN = WINDOW
#: Mean relative prediction error above this is drift. The paper's
#: designs hold mean error well under 20% on steady phases; 0.5 means
#: predictions are off by half, decisions are near-random.
REL_ERROR_THRESHOLD = 0.5
#: Mean shed fraction above this means the service is persistently over
#: capacity, not absorbing a burst.
SHED_RATE_THRESHOLD = 0.2
#: The threshold of each watched signal; any other signal is refused.
THRESHOLDS: Dict[str, float] = {
    SIGNAL_REL_ERROR: REL_ERROR_THRESHOLD,
    SIGNAL_SHED_RATE: SHED_RATE_THRESHOLD,
}


@dataclass(frozen=True)
class DriftAlert:
    """One threshold crossing (``kind="alert"``) or recovery."""

    signal: str
    #: ``"alert"`` (mean crossed above threshold) or ``"recovered"``.
    kind: str
    #: Window mean at the moment of emission.
    value: float
    threshold: float
    #: Observations in the window when it fired.
    window_count: int
    #: Index of the observation (per signal, from 0) that triggered it.
    at_index: int

    def as_record(self) -> Dict[str, object]:
        return {
            "type": "alert",
            "signal": self.signal,
            "kind": self.kind,
            "value": self.value,
            "threshold": self.threshold,
            "window_count": self.window_count,
            "at_index": self.at_index,
        }

    def render(self) -> str:
        verb = "drift" if self.kind == "alert" else "recovered"
        return (
            f"{verb}: {self.signal} mean {self.value:.3f} "
            f"{'>' if self.kind == 'alert' else '<='} "
            f"threshold {self.threshold:.3f} "
            f"(window n={self.window_count}, obs #{self.at_index})"
        )


class _SignalWindow:
    """Rolling window + alert state for one signal."""

    __slots__ = ("values", "sum", "seen", "alerting", "last_alert_at")

    def __init__(self) -> None:
        self.values: Deque[float] = deque(maxlen=WINDOW)
        self.sum = 0.0
        self.seen = 0
        self.alerting = False
        self.last_alert_at = -1

    def push(self, value: float) -> float:
        if len(self.values) == self.values.maxlen:
            self.sum -= self.values[0]
        self.values.append(value)
        self.sum += value
        self.seen += 1
        return self.sum / len(self.values)


class DriftMonitor:
    """Feeds rolling windows; emits :class:`DriftAlert` on crossings."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        write: Optional[Callable[[Mapping[str, object]], None]] = None,
        log=None,
    ) -> None:
        self.registry = registry
        self.write = write
        self.log = log
        self._signals: Dict[str, _SignalWindow] = {}
        #: Every alert and recovery emitted, in order.
        self.alerts: List[DriftAlert] = []

    # ------------------------------------------------------------------
    # Observation entry points

    def observe(self, signal: str, value: float) -> Optional[DriftAlert]:
        """Push one observation; returns the alert if one fired."""
        try:
            threshold = THRESHOLDS[signal]
        except KeyError:
            raise ValueError(f"no threshold for signal {signal!r}") from None
        win = self._signals.get(signal)
        if win is None:
            win = self._signals[signal] = _SignalWindow()
        mean = win.push(value)
        if self.registry is not None:
            self.registry.gauge(f"drift_{signal}_level").set(mean)

        index = win.seen - 1
        if len(win.values) < MIN_COUNT:
            return None
        if mean > threshold:
            if win.alerting and index - win.last_alert_at < COOLDOWN:
                return None
            win.alerting = True
            win.last_alert_at = index
            return self._emit(
                DriftAlert(signal, "alert", mean, threshold, len(win.values), index)
            )
        if win.alerting:
            win.alerting = False
            return self._emit(
                DriftAlert(
                    signal, "recovered", mean, threshold, len(win.values), index
                )
            )
        return None

    def observe_error(self, rel_error: float) -> Optional[DriftAlert]:
        """One scored domain-epoch's relative prediction error."""
        return self.observe(SIGNAL_REL_ERROR, rel_error)

    def observe_shed(self, shed: bool) -> Optional[DriftAlert]:
        """One observe frame: shed (True) or admitted (False)."""
        return self.observe(SIGNAL_SHED_RATE, 1.0 if shed else 0.0)

    # ------------------------------------------------------------------

    def mean(self, signal: str) -> Optional[float]:
        """Current window mean of a signal (None before any data)."""
        win = self._signals.get(signal)
        if win is None or not win.values:
            return None
        return win.sum / len(win.values)

    @property
    def alert_count(self) -> int:
        return sum(1 for a in self.alerts if a.kind == "alert")

    def _emit(self, alert: DriftAlert) -> DriftAlert:
        self.alerts.append(alert)
        if self.registry is not None:
            if alert.kind == "alert":
                self.registry.inc("drift_alerts_total")
                self.registry.inc(f"drift_alerts_{alert.signal}")
            else:
                self.registry.inc("drift_recoveries_total")
        if self.write is not None:
            self.write(alert.as_record())
        if self.log is not None:
            level = self.log.warning if alert.kind == "alert" else self.log.info
            level(
                alert.render(),
                extra={
                    "signal": alert.signal,
                    "value": round(alert.value, 6),
                    "threshold": alert.threshold,
                    "kind": alert.kind,
                },
            )
        return alert


__all__ = [
    "COOLDOWN",
    "DriftAlert",
    "DriftMonitor",
    "MIN_COUNT",
    "REL_ERROR_THRESHOLD",
    "SHED_RATE_THRESHOLD",
    "SIGNAL_REL_ERROR",
    "SIGNAL_SHED_RATE",
    "THRESHOLDS",
    "WINDOW",
]
