"""Wire protocol of the online DVFS decision service.

Framing
-------
Every message is one *frame*: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON (one object per frame). The
framing helpers (and the exact-float-round-trip rationale) live in
:mod:`repro.runtime.wire`, shared with the distributed sweep broker;
this module re-exports them so service code and existing callers keep
one import site.

Message vocabulary
------------------
Client -> server:

``open``
    Start a session: ``design`` (registry name), ``config`` (the wire
    form of a :class:`~repro.config.SimConfig`, see
    :func:`sim_config_from_wire`), optional ``objective`` (display
    name, see :func:`objective_from_name`). The reply carries the
    decision for epoch 0 - mirroring the offline loop, which calls
    ``controller.decide()`` before the first epoch runs.
``observe``
    One elapsed epoch: ``epoch`` (index), ``result`` (wire
    :class:`~repro.gpu.gpu.EpochResult`), optional ``truth`` (oracle
    sensitivity lines, required by truth-consuming designs), ``seq``
    (client-chosen correlator echoed in the reply). The reply is the
    decision for ``epoch + 1``.
``close``
    Orderly goodbye.

Server -> client: ``open_ok``, ``decision``, ``bye``, ``shed``
(backpressure - resend after a backoff), ``error`` (carries ``code`` +
``error``; the session survives unless the error says otherwise; an
unknown message type gets ``unknown_type``), ``shutdown`` (the server
is stopping; no more requests will be served).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Optional

from repro.runtime.wire import (  # noqa: F401  (re-exported public surface)
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_payload,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.core.objectives import (
    EDnPObjective,
    Objective,
    PerformanceCapObjective,
    QoSDeadlineObjective,
    StaticObjective,
    read_parameter,
)
from repro.core.sensitivity import LinearSensitivity
from repro.gpu.cu import CuEpochStats
from repro.gpu.gpu import EpochResult, WaveEpochRecord
from repro.telemetry.schema import sim_config_from_wire  # noqa: F401  (re-exported)

#: Protocol revision; an ``open`` carrying a different one is rejected.
#: Version 2: each wave record of an ``observe`` is one flat list.
PROTOCOL_VERSION = 2

#: Default decision-service port (and health port right above it).
DEFAULT_PORT = 8472
DEFAULT_HEALTH_PORT = 8473

# Client -> server message types.
MSG_OPEN = "open"
MSG_OBSERVE = "observe"
MSG_CLOSE = "close"

# Server -> client message types.
MSG_OPEN_OK = "open_ok"
MSG_DECISION = "decision"
MSG_BYE = "bye"
MSG_SHED = "shed"
MSG_ERROR = "error"
MSG_SHUTDOWN = "shutdown"


# ----------------------------------------------------------------------
# Wire <-> simulator objects
#
# The *_to_wire encoders live in repro.telemetry.schema (the recorder
# writes them into traces without importing gpu/dvfs modules), and so
# does the SimConfig decoder, which sweep workers share; the decoders
# of live simulator objects live here because reconstructing them is
# exactly the service's job.

def lines_to_wire(
    lines: Optional[List[LinearSensitivity]],
) -> Optional[List[List[float]]]:
    if lines is None:
        return None
    return [[ln.i0, ln.slope] for ln in lines]


def lines_from_wire(wire: Any) -> List[LinearSensitivity]:
    try:
        return [LinearSensitivity(float(i0), float(slope)) for i0, slope in wire]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed truth lines: {exc}") from None


_CU_STATS_ARITY = len(CuEpochStats().capture())
_WAVE_RECORD_ARITY = len(WaveEpochRecord._fields)


def epoch_result_from_wire(wire: Mapping[str, Any]) -> EpochResult:
    """Rebuild an :class:`~repro.gpu.gpu.EpochResult` from its wire form.

    Inverse of :func:`repro.telemetry.schema.epoch_result_to_wire`. CU
    stats travel as ``capture()`` tuples and wave records as flat lists,
    fields in declaration order, so both are built positionally; a
    capture or record of the wrong length is malformed.
    """
    try:
        cu_stats = []
        for cap in wire["cu_stats"]:
            if len(cap) != _CU_STATS_ARITY:
                raise ValueError(f"CU stats capture has {len(cap)} fields")
            cu_stats.append(CuEpochStats(*cap))
        wave_records = []
        for cu_records in wire["wave_records"]:
            records = []
            for rec in cu_records:
                if len(rec) != _WAVE_RECORD_ARITY:
                    raise ValueError(f"wave record has {len(rec)} fields")
                (wf_id, age_rank, start_pc, next_pc, committed,
                 stall, store, barrier, lead, crit) = rec
                records.append(WaveEpochRecord(
                    int(wf_id), int(age_rank), int(start_pc), int(next_pc),
                    committed, stall, store, barrier, lead, crit,
                ))
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


#: Display-name patterns for the objective registry (see
#: ``repro.core.objectives``; each class stamps ``self.name``).
_EDNP_RE = re.compile(r"^ED(\d+)P$")
_ENERGY_RE = re.compile(r"^ENERGY@(\d+(?:\.\d+)?)%$")
_QOS_RE = re.compile(r"^QOS@(\d+(?:\.\d+)?)$")
_STATIC_RE = re.compile(r"^STATIC@(\d+(?:\.\d+)?)(?:GHz)?$", re.IGNORECASE)
_CLI_CAP_RE = re.compile(r"^cap(\d+(?:\.\d+)?)$")
_CLI_EDNP_RE = re.compile(r"^ed(\d*)p$")


def objective_from_name(name: str) -> Optional[Objective]:
    """Objective instance for a display or CLI name; None = default.

    Accepts the display names objectives stamp on themselves (``EDP``,
    ``ED2P``, ``ENERGY@5%``, ``QOS@1000``, ``STATIC@1.7GHz``) - which is
    what run headers record - plus the CLI spellings (``ed2p``,
    ``cap5``). The empty string means "driver default" (ED2P, matching
    :func:`repro.dvfs.designs.make_controller`).
    """
    name = name.strip()
    if not name:
        return None
    if name == "EDP":
        return EDnPObjective(1)
    m = _EDNP_RE.match(name)
    if m:
        return EDnPObjective(int(m.group(1)))
    m = _CLI_EDNP_RE.match(name)
    if m:
        return EDnPObjective(int(m.group(1) or 1))
    m = _ENERGY_RE.match(name) or _CLI_CAP_RE.match(name)
    if m:
        return PerformanceCapObjective(read_parameter(m.group(1), 100.0))
    m = _QOS_RE.match(name)
    if m:
        return QoSDeadlineObjective(read_parameter(m.group(1)))
    m = _STATIC_RE.match(name)
    if m:
        return StaticObjective(read_parameter(m.group(1)))
    raise ProtocolError(f"unknown objective name {name!r}")


__all__ = [
    "DEFAULT_HEALTH_PORT",
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "MSG_BYE",
    "MSG_CLOSE",
    "MSG_DECISION",
    "MSG_ERROR",
    "MSG_OBSERVE",
    "MSG_OPEN",
    "MSG_OPEN_OK",
    "MSG_SHED",
    "MSG_SHUTDOWN",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_payload",
    "encode_frame",
    "epoch_result_from_wire",
    "lines_from_wire",
    "lines_to_wire",
    "objective_from_name",
    "recv_frame",
    "send_frame",
    "sim_config_from_wire",
]
