"""``repro replay``: verify a live server against an offline trace.

A trace recorded with ``repro trace ... --trace FILE`` holds, per
epoch, both sides of the decision loop: the frequencies the offline
:class:`~repro.dvfs.simulation.DvfsSimulation` chose (``domain``
records) and the complete predictor input that produced them
(``observation`` records), plus the full platform config in the run
header. Replay reconstructs the loop against a *live* server:

1. ``open`` a session with the trace's design/config/objective - the
   reply must equal the offline decision for epoch 0;
2. stream observation ``e``, compare the returned decision with the
   offline decision for epoch ``e + 1``;
3. report every mismatch, per (epoch, domain), bit-for-bit.

Because the wire protocol round-trips floats exactly (see
:mod:`repro.service.protocol`) and the server rebuilds its controller
through the same :func:`~repro.dvfs.designs.make_controller` path the
simulation used, the comparison is exact equality - any drift between
the service and the simulator is a bug, and this is the tripwire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runtime.executor import RetryPolicy
from repro.service.client import DecisionClient
from repro.telemetry.schema import check_meta, load_trace_jsonl


@dataclass(frozen=True)
class Mismatch:
    """One decision that differed between offline trace and live server."""

    epoch: int
    domain: int
    offline_ghz: float
    online_ghz: float


@dataclass
class ReplayReport:
    """Outcome of one replay run."""

    workload: str
    design: str
    objective: str
    epochs_streamed: int = 0
    decisions_compared: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    sheds: int = 0
    connect_retries: int = 0

    @property
    def bit_identical(self) -> bool:
        return not self.mismatches and self.decisions_compared > 0

    def render(self) -> str:
        head = (
            f"{self.workload}/{self.design}"
            f"{f' ({self.objective})' if self.objective else ''}: "
            f"{self.epochs_streamed} epochs streamed, "
            f"{self.decisions_compared} decisions compared"
        )
        if self.sheds or self.connect_retries:
            head += (f" ({self.sheds} shed/resent, "
                     f"{self.connect_retries} connect retries)")
        if self.bit_identical:
            return head + "\nonline decisions are bit-identical to the offline run"
        lines = [head, f"{len(self.mismatches)} MISMATCHED decision(s):"]
        for m in self.mismatches[:20]:
            lines.append(
                f"  epoch {m.epoch} domain {m.domain}: "
                f"offline {m.offline_ghz!r} != online {m.online_ghz!r}"
            )
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class ReplayTrace:
    """The replayable content of one epoch-trace JSONL."""

    workload: str
    design: str
    objective: str
    sim_config_wire: Dict[str, Any]
    n_domains: int
    #: observations[e] = {"result": wire EpochResult, "truth": wire lines}
    observations: List[Dict[str, Any]]
    #: chosen[e][d] = the offline decision (GHz) for epoch e, domain d.
    chosen: List[List[float]]


def load_replay_trace(path: str) -> ReplayTrace:
    """Load and cross-check a trace for replay.

    Raises ``ValueError`` with an actionable message when the trace
    lacks what replay needs (old schema, no observation records, gaps
    in the epoch sequence).
    """
    records = load_trace_jsonl(path)
    if not records or records[0].get("type") != "run":
        raise ValueError(f"{path}: not an epoch trace (no run header)")
    try:
        header = check_meta(records[0])
    except ValueError as exc:
        raise ValueError(
            f"{path}: {exc}; re-record with: repro trace <workload> --trace FILE"
        ) from None

    sim_config_wire = header.get("sim_config")
    if not isinstance(sim_config_wire, dict):
        raise ValueError(
            f"{path}: run header has no embedded sim_config; re-record "
            f"with: repro trace <workload> --trace FILE"
        )
    n_domains = int(header["n_domains"])  # type: ignore[arg-type]

    observations: Dict[int, Dict[str, Any]] = {}
    chosen: Dict[int, Dict[int, float]] = {}
    for record in records[1:]:
        rtype = record.get("type")
        if rtype == "observation":
            observations[int(record["epoch"])] = {  # type: ignore[arg-type]
                "result": record["result"],
                "truth": record.get("truth"),
            }
        elif rtype == "domain":
            epoch = int(record["epoch"])  # type: ignore[arg-type]
            chosen.setdefault(epoch, {})[int(record["domain"])] = (  # type: ignore[arg-type]
                float(record["freq_ghz"])  # type: ignore[arg-type]
            )

    if not observations:
        raise ValueError(
            f"{path}: no observation records; re-record with: "
            f"repro trace <workload> --trace FILE"
        )
    n_epochs = len(observations)
    for collection, what in ((observations, "observation"), (chosen, "domain")):
        missing = [e for e in range(n_epochs) if e not in collection]
        if missing:
            raise ValueError(
                f"{path}: {what} records missing for epochs {missing[:5]} "
                f"(trace truncated?)"
            )
    chosen_lists: List[List[float]] = []
    for e in range(n_epochs):
        per_domain = chosen[e]
        if sorted(per_domain) != list(range(n_domains)):
            raise ValueError(
                f"{path}: epoch {e} has domain records for {sorted(per_domain)}, "
                f"expected 0..{n_domains - 1}"
            )
        chosen_lists.append([per_domain[d] for d in range(n_domains)])

    return ReplayTrace(
        workload=str(header.get("workload", "?")),
        design=str(header.get("design", "?")),
        objective=str(header.get("objective", "")),
        sim_config_wire=sim_config_wire,
        n_domains=n_domains,
        observations=[observations[e] for e in range(n_epochs)],
        chosen=chosen_lists,
    )


def replay_trace(
    path: str,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    timeout_s: float = 30.0,
    retry: Optional[RetryPolicy] = None,
) -> ReplayReport:
    """Stream a recorded trace through a live server; compare decisions.

    Comparison is exact float equality: the recorded ``freq_ghz`` and
    the served decision both round-tripped through JSON's
    shortest-repr encoding, so equal decisions compare equal and any
    difference is a real divergence, not noise.
    """
    from repro.service.protocol import DEFAULT_PORT

    trace = load_replay_trace(path)
    report = ReplayReport(
        workload=trace.workload, design=trace.design, objective=trace.objective
    )

    client = DecisionClient(
        host=host,
        port=DEFAULT_PORT if port is None else port,
        timeout_s=timeout_s,
        retry=retry,
    ).connect()
    try:
        decision = client.open_session(
            trace.design, trace.sim_config_wire, objective=trace.objective
        )
        _compare(report, 0, decision, trace.chosen[0])
        n_epochs = len(trace.observations)
        for epoch in range(n_epochs):
            obs = trace.observations[epoch]
            decision = client.observe(epoch, obs["result"], truth_lines=obs["truth"])
            report.epochs_streamed += 1
            if epoch + 1 < n_epochs:
                # The decision for the final epoch + 1 has no offline
                # counterpart (the run ended there); nothing to compare.
                _compare(report, epoch + 1, decision, trace.chosen[epoch + 1])
    finally:
        report.sheds = client.sheds
        report.connect_retries = client.connect_retries
        client.close()
    return report


def _compare(
    report: ReplayReport,
    epoch: int,
    online: List[float],
    offline: List[float],
) -> None:
    report.decisions_compared += 1
    for domain, (got, expected) in enumerate(zip(online, offline)):
        if got != expected:
            report.mismatches.append(
                Mismatch(epoch=epoch, domain=domain,
                         offline_ghz=expected, online_ghz=got)
            )


__all__ = ["Mismatch", "ReplayReport", "ReplayTrace", "load_replay_trace", "replay_trace"]
