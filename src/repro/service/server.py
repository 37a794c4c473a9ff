"""The asyncio decision server: per-session controllers, answered in the read.

One :class:`DecisionService` owns:

* **Sessions** - each ``open`` builds a fresh controller via
  :func:`~repro.dvfs.designs.make_controller` from the client-supplied
  design + config, so session state (PC tables, current frequencies)
  is the state an offline :class:`~repro.dvfs.simulation.DvfsSimulation`
  holds, but the controller log keeps only the latest epoch. Designs
  needing *future* oracle truth (ORACLE) are rejected at open: an
  online service cannot pre-execute its clients' next epoch.
* **Framing and deciding in the callback** - each decision-port
  connection is an :class:`asyncio.Protocol` whose ``data_received``
  feeds a :class:`~repro.runtime.wire.FrameDecoder` and handles every
  frame the bytes complete, in frame order, with no per-connection
  reader task: an admitted observation is decided and answered before
  the next frame is read. The event loop runs one callback at a time,
  so predictor updates never need locks.
* **Admission control & backpressure** - at most ``max_sessions``
  concurrent sessions; one read admits at most :data:`MAX_INFLIGHT`
  observations of its session, and the rest of the read (or every
  observation, while the client stops reading its responses, detected
  via the transport write buffer) is answered ``shed`` immediately
  *without touching predictor state*, so a shed epoch can simply be
  resent. Responses are written without waiting for the transport to
  flush - a slow consumer can therefore never stall the loop; memory
  stays bounded because overflowing sessions are shed, not buffered.
* **Graceful shutdown** - :meth:`DecisionService.shutdown` stops
  accepting, notifies every session with a ``shutdown`` frame and
  closes. Every admitted observation was already answered in the read
  that delivered it, so there is nothing to wait for. ``repro serve``
  wires SIGTERM/SIGINT to it.
* **Observability** - ``/healthz`` (200 serving / 503 draining) and
  ``/metrics`` (a :class:`~repro.telemetry.metrics.MetricsRegistry`
  snapshot with build meta + config hash as JSON, or Prometheus text
  exposition via ``?format=prometheus`` / ``Accept: text/plain``) over
  minimal hand-rolled HTTP on a second listener. An optional
  :class:`~repro.obs.trace.Tracer` spans every connect -> session ->
  request -> decision, and an optional
  :class:`~repro.obs.drift.DriftMonitor` watches the shed rate - both
  strictly observational: decisions are bit-identical with or without
  them (``repro replay`` against a traced server pins this down).

Epoch ordering is enforced per session: an ``observe`` whose epoch
index is not the next expected one gets an ``error`` reply and changes
nothing, which is what makes SHED-and-resend sound - a resent epoch is
either the expected one (applied once) or stale (rejected).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

# The LEARNED design's path (model registry, models, numpy) is imported
# here, before the service listens: a session opening LEARNED would
# otherwise import it on the event loop and stall every other session.
import repro.learn.registry  # noqa: F401
from repro import __version__
from repro.core.controller import ControllerLog
from repro.dvfs.designs import make_controller
from repro.obs.log import get_logger
from repro.obs.prom import CONTENT_TYPE, render_prometheus
from repro.runtime.cache import config_hash
from repro.runtime.wire import FrameDecoder
from repro.service import protocol as proto
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.schema import build_meta

if TYPE_CHECKING:
    from repro.obs.drift import DriftMonitor
    from repro.obs.trace import Span, Tracer

_log = get_logger("service")

#: Predicted lines the controller replaced because they were not finite
#: (one counter per fallback reason; the registry has no labels).
NON_FINITE_FALLBACKS = "service_decision_fallbacks_non_finite_line"

#: Most observations one read admits from its session; the rest of the
#: read is shed (backpressure to the client, not memory growth).
MAX_INFLIGHT = 8

#: ``service_batch_size`` bounds: the powers of two up to MAX_INFLIGHT,
#: the most one read (one batch) can admit.
BATCH_BUCKETS = tuple(float(1 << i) for i in range(MAX_INFLIGHT.bit_length()))

#: Transport write-buffer bytes beyond which a session counts as a slow
#: consumer and its observations are shed.
WRITE_BUFFER_LIMIT = 1 << 20

_HTTP_STATUS_TEXT = {
    200: "OK",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of one :class:`DecisionService`."""

    host: str = "127.0.0.1"
    #: Decision port; 0 binds an ephemeral port (tests).
    port: int = proto.DEFAULT_PORT
    #: Health/metrics HTTP port; 0 = ephemeral, None = disabled.
    health_port: Optional[int] = proto.DEFAULT_HEALTH_PORT
    #: Admission cap: concurrent sessions beyond this are rejected.
    max_sessions: int = 64
    #: Default model-registry reference served to sessions opening the
    #: bare ``LEARNED`` design (``repro serve --model``). Sessions that
    #: pin a model via ``LEARNED@<ref>`` override this per open.
    model_ref: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")


class _Session:
    """Server-side state of one client session."""

    __slots__ = ("sid", "transport", "controller", "design",
                 "expected_epoch", "closed", "span")

    def __init__(self, sid: int, transport: asyncio.Transport, controller, design: str):
        self.sid = sid
        self.transport = transport
        self.controller = controller
        self.design = design
        #: The only epoch index the next observe may carry.
        self.expected_epoch = 0
        self.closed = False
        #: The session's tracing span, when the service has a tracer.
        self.span: Optional["Span"] = None


class _Connection(asyncio.Protocol):
    """One decision-port connection: frames are parsed and handled in
    ``data_received``; the first frame must open a session."""

    #: Set by ``connection_made``, before any other callback.
    transport: asyncio.Transport

    def __init__(self, service: "DecisionService") -> None:
        self.service = service
        self.decoder = FrameDecoder()
        self.session: Optional[_Session] = None
        #: The connection's tracing span, when the service has a tracer.
        self.span: Optional["Span"] = None
        #: Set once the connection is torn down; later bytes are ignored.
        self.ended = False
        #: Observations admitted from the current read.
        self.admitted = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        tracer = self.service.tracer
        if tracer is not None:
            self.span = tracer.start("connect")

    def data_received(self, data: bytes) -> None:
        service = self.service
        decoder = self.decoder
        decoder.feed(data)
        self.admitted = 0
        while not self.ended:
            session = self.session
            try:
                msg = decoder.next_message()
            except proto.ProtocolError as exc:
                error = {"type": proto.MSG_ERROR, "code": "protocol", "error": str(exc)}
                if session is None:
                    service._reply(self.transport, error)
                else:
                    service._write(session, error)
                service._end(self)
                break
            if msg is None:
                break
            if session is None:
                service._open(self, msg)
            else:
                service._handle(self, session, msg)
        if self.admitted:
            # One batch per read that admitted work, sized by its count.
            service.registry.inc("service_batches")
            service.registry.histogram(
                "service_batch_size", BATCH_BUCKETS
            ).observe(self.admitted)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self.ended and self.session is not None and not self.service.draining:
            # An abrupt disconnect: the peer left without a close frame
            # (or we closed the transport under a reply we could not send).
            self.service.registry.inc("service_disconnects")
        self.service._end(self)


class DecisionService:
    """The serving loop. ``await start()``, then ``await wait_closed()``."""

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional["Tracer"] = None,
        drift: Optional["DriftMonitor"] = None,
    ) -> None:
        self.config = config
        self.registry = registry or MetricsRegistry()
        self.registry.counter(NON_FINITE_FALLBACKS)  # exported from zero
        #: Optional span tracer: connect -> session -> request ->
        #: decision. Spans only observe; decisions are bit-identical
        #: with or without one (``repro replay`` pins this down).
        self.tracer = tracer
        #: Optional drift monitor; fed one shed_rate observation per
        #: observe frame (shed=1, admitted=0).
        self.drift = drift
        self._sessions: Dict[int, _Session] = {}
        self._next_sid = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._health_server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._closed = asyncio.Event()
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        self._started_at = time.monotonic()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host, self.config.port
        )
        if self.config.health_port is not None:
            self._health_server = await asyncio.start_server(
                self._handle_health, self.config.host, self.config.health_port
            )

    @property
    def port(self) -> int:
        """The bound decision port (resolves ephemeral port 0)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def health_port(self) -> Optional[int]:
        if self._health_server is None:
            return None
        return self._health_server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Graceful stop: stop accepting, notify every session, close.

        Idempotent; a second call awaits the first one's completion.
        """
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()

        for session in list(self._sessions.values()):
            self._write(session, {"type": proto.MSG_SHUTDOWN})
            session.closed = True
            # close() flushes the notice first, without waiting on a
            # wedged consumer here.
            session.transport.close()

        if self._health_server is not None:
            self._health_server.close()
            await self._health_server.wait_closed()
        if self._server is not None:
            await self._server.wait_closed()
        self._closed.set()

    # ------------------------------------------------------------------
    # Decision protocol

    def _open(self, conn: _Connection, msg) -> None:
        """The first frame of a connection: open a session, or end it."""
        session = self._open_session(msg, conn.transport)
        if session is None:
            self._end(conn)
            return
        conn.session = session
        tr = self.tracer
        if tr is not None:
            session.span = tr.start(
                "session", parent=conn.span,
                session=session.sid, design=session.design,
            )

    def _handle(self, conn: _Connection, session: _Session, msg) -> None:
        """A frame of ``conn``'s open session."""
        mtype = msg.get("type")
        if mtype == proto.MSG_OBSERVE:
            self._admit(conn, session, msg)
        elif mtype == proto.MSG_CLOSE:
            self._write(session, {"type": proto.MSG_BYE})
            self._end(conn)
        else:
            self._write(session, {
                "type": proto.MSG_ERROR, "code": "unknown_type",
                "error": f"unknown message type {mtype!r}",
            })

    def _end(self, conn: _Connection) -> None:
        """Tear a connection down once: close its session and spans."""
        if conn.ended:
            return
        conn.ended = True
        tr = self.tracer
        session = conn.session
        if session is not None:
            session.closed = True
            self._sessions.pop(session.sid, None)
            self.registry.inc("service_sessions_closed")
            _log.info(
                "session closed",
                extra={"session": session.sid,
                       "epochs": session.expected_epoch},
            )
            if tr is not None and session.span is not None:
                tr.finish(session.span, epochs=session.expected_epoch)
        if tr is not None and conn.span is not None:
            tr.finish(conn.span)
        conn.decoder.clear()
        conn.transport.close()

    def _open_session(self, msg, transport: asyncio.Transport) -> Optional[_Session]:
        """Admission + controller construction for an ``open`` frame."""
        reg = self.registry

        def reject(code: str, error: str) -> None:
            reg.inc("service_rejects")
            _log.warning(f"open rejected: {error}", extra={"code": code})
            self._reply(transport, {"type": proto.MSG_ERROR, "code": code,
                                    "error": error})

        if msg.get("type") != proto.MSG_OPEN:
            reject("expected_open",
                   f"first frame must be {proto.MSG_OPEN!r}, got {msg.get('type')!r}")
            return None
        version = msg.get("protocol")
        if version != proto.PROTOCOL_VERSION:
            reject("protocol_version",
                   f"server speaks protocol {proto.PROTOCOL_VERSION}, "
                   f"client sent {version!r}")
            return None
        if self._draining:
            reject("draining", "server is shutting down")
            return None
        if len(self._sessions) >= self.config.max_sessions:
            reject("capacity",
                   f"session cap reached ({self.config.max_sessions})")
            return None

        design = str(msg.get("design", ""))
        try:
            sim_config = proto.sim_config_from_wire(msg["config"])
            objective = proto.objective_from_name(str(msg.get("objective", "")))
            # Unknown designs and unresolvable LEARNED model references
            # both surface as ValueError and reject as bad opens.
            controller = make_controller(
                design, sim_config, objective,
                model_ref=self.config.model_ref,
            )
        except (proto.ProtocolError, KeyError, ValueError) as exc:
            reject("bad_open", str(exc))
            return None
        if controller.predictor.needs_future_truth:
            # ORACLE samples the *upcoming* epoch by forking the GPU;
            # a server only ever sees epochs that already happened.
            reject("unservable_design",
                   f"design {design!r} needs future oracle truth and "
                   f"cannot be served online")
            return None

        controller.log = ControllerLog.latest_only()  # bounded history
        self._next_sid += 1
        session = _Session(self._next_sid, transport, controller, design)
        self._sessions[session.sid] = session
        reg.inc("service_sessions_opened")
        gauge = reg.gauge("service_sessions_peak")
        gauge.set(max(gauge.value, len(self._sessions)))
        _log.info(
            "session opened",
            extra={"session": session.sid, "design": design},
        )

        # Mirror the offline loop: decide() runs before the first epoch.
        decision = self._decide_counted(controller)
        self._write(session, {
            "type": proto.MSG_OPEN_OK,
            "session": session.sid,
            "protocol": proto.PROTOCOL_VERSION,
            "design": design,
            "n_domains": sim_config.gpu.n_domains,
            "epoch": 0,
            "decision": list(decision),
        })
        return session

    def _admit(self, conn: _Connection, session: _Session, msg) -> None:
        """Decide and answer an observation, or shed it when the read
        is over cap."""
        reg = self.registry
        tr = self.tracer
        reg.inc("service_requests")
        slow = session.transport.get_write_buffer_size() > WRITE_BUFFER_LIMIT
        if self._draining or conn.admitted >= MAX_INFLIGHT or slow:
            reg.inc("service_shed")
            reason = ("draining" if self._draining
                      else "slow_consumer" if slow else "inflight_cap")
            if self.drift is not None:
                self.drift.observe_shed(True)
            if tr is not None:
                tr.event(
                    "shed", parent=session.span,
                    session=session.sid, reason=reason,
                    epoch=msg.get("epoch"),
                )
            _log.warning(
                "observation shed",
                extra={"session": session.sid, "reason": reason,
                       "epoch": msg.get("epoch")},
            )
            self._write(session, {
                "type": proto.MSG_SHED,
                "seq": msg.get("seq"),
                "epoch": msg.get("epoch"),
                "reason": reason,
            })
            return
        if self.drift is not None:
            self.drift.observe_shed(False)
        conn.admitted += 1
        req_span: Optional["Span"] = None
        dec_span: Optional["Span"] = None
        if tr is not None:
            req_span = tr.start(
                "request", parent=session.span,
                session=session.sid, epoch=msg.get("epoch"),
            )
            dec_span = tr.start("decision", parent=req_span)
        try:
            reply = self._decide(session, msg)
        except Exception as exc:  # never let one request kill the loop
            reg.inc("service_internal_errors")
            _log.error(
                f"internal error deciding for session {session.sid}: {exc}",
                extra={"session": session.sid},
            )
            reply = {"type": proto.MSG_ERROR, "code": "internal",
                     "seq": msg.get("seq"), "error": str(exc)}
        if tr is not None and dec_span is not None:
            tr.finish(dec_span)
        self._write(session, reply)
        if tr is not None and req_span is not None:
            tr.finish(req_span, status=(reply or {}).get("type", "none"))

    def _decide(self, session: _Session, msg) -> Optional[Dict[str, object]]:
        """observe() + decide() for one admitted observation."""
        reg = self.registry
        if session.closed:
            return None
        seq = msg.get("seq")
        epoch = msg.get("epoch")
        if epoch != session.expected_epoch:
            # No state change: stale or out-of-order epochs (e.g. a
            # client retrying an epoch that was actually applied) are
            # rejected, never double-applied.
            reg.inc("service_out_of_order")
            return {
                "type": proto.MSG_ERROR, "code": "out_of_order", "seq": seq,
                "expected_epoch": session.expected_epoch,
                "error": f"expected epoch {session.expected_epoch}, got {epoch!r}",
            }
        controller = session.controller
        try:
            result = proto.epoch_result_from_wire(msg["result"])
            if len(result.cu_stats) != controller.config.gpu.n_cus:
                raise proto.ProtocolError(
                    f"observation has {len(result.cu_stats)} CUs, "
                    f"session platform has {controller.config.gpu.n_cus}"
                )
            truth = None
            if controller.predictor.needs_elapsed_truth:
                if msg.get("truth") is None:
                    raise proto.ProtocolError(
                        f"design {session.design!r} requires oracle truth "
                        f"lines with every observation"
                    )
                truth = proto.lines_from_wire(msg["truth"])
        except (proto.ProtocolError, KeyError) as exc:
            reg.inc("service_bad_requests")
            return {"type": proto.MSG_ERROR, "code": "bad_observation",
                    "seq": seq, "error": str(exc)}

        controller.observe(result, true_domain_lines=truth)
        decision = self._decide_counted(controller)
        session.expected_epoch = int(epoch) + 1
        reg.inc("service_decisions")
        return {
            "type": proto.MSG_DECISION,
            "seq": seq,
            "epoch": session.expected_epoch,
            "decision": list(decision),
        }

    def _decide_counted(self, controller) -> List[float]:
        """``controller.decide()``, counting the lines it replaced."""
        before = controller.non_finite_fallbacks
        decision = controller.decide()
        if controller.non_finite_fallbacks != before:
            self.registry.inc(NON_FINITE_FALLBACKS, controller.non_finite_fallbacks - before)
        return decision

    # ------------------------------------------------------------------
    # Writing

    def _write(self, session: _Session, message: Optional[Dict[str, object]]) -> None:
        """Fire-and-forget frame write.

        Deliberately no wait for the transport to flush: the loop must
        never block on one slow client. Memory stays bounded because a
        session whose write buffer grows past :data:`WRITE_BUFFER_LIMIT`
        has its further observations shed rather than answered.
        """
        if message is None or session.closed:
            return
        try:
            session.transport.write(proto.encode_frame(message))
        except (ConnectionError, RuntimeError):
            session.closed = True
        except ValueError:
            # The reply echoes a client value JSON cannot carry (1e999).
            session.closed = True
            session.transport.close()

    @staticmethod
    def _reply(transport: asyncio.Transport, message: Dict[str, object]) -> None:
        """Pre-session write (open rejections, protocol errors)."""
        try:
            transport.write(proto.encode_frame(message))
        except (ConnectionError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    # Health / metrics HTTP

    async def _handle_health(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            accept = ""
            while True:  # consume headers up to the blank line
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
                header = line.decode("latin-1", "replace")
                if header.lower().startswith("accept:"):
                    accept = header.split(":", 1)[1].strip()
            parts = request_line.decode("latin-1").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) > 1 else ""
            status, payload, content_type = self._route(method, path, accept)
            head = (
                f"HTTP/1.1 {status} {_HTTP_STATUS_TEXT.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()

    @staticmethod
    def _wants_prometheus(query: str, accept: str) -> bool:
        """Scrape-format negotiation: explicit ``?format=`` wins, then
        an Accept header asking for text/plain (what Prometheus sends)."""
        params = dict(
            part.split("=", 1) for part in query.split("&") if "=" in part
        )
        fmt = params.get("format", "")
        if fmt:
            return fmt == "prometheus"
        return "text/plain" in accept or "openmetrics" in accept

    def _meta(self) -> Dict[str, object]:
        """Build provenance: what produced these numbers, exactly."""
        return build_meta(config_hash=config_hash(self.config))

    def _route(
        self, method: str, path: str, accept: str = ""
    ) -> Tuple[int, bytes, str]:
        def as_json(status: int, body: Dict[str, object]) -> Tuple[int, bytes, str]:
            return (
                status,
                json.dumps(body, sort_keys=True).encode("utf-8"),
                "application/json",
            )

        path, _, query = path.partition("?")
        if method != "GET":
            return as_json(405, {"error": "only GET is served"})
        if path == "/healthz":
            status = 503 if self._draining else 200
            return as_json(status, {
                "status": "draining" if self._draining else "ok",
                "version": __version__,
                "sessions": len(self._sessions),
                "uptime_s": round(time.monotonic() - self._started_at, 3),
            })
        if path == "/metrics":
            meta = self._meta()
            if self._wants_prometheus(query, accept):
                reg = self.registry
                reg.gauge("service_sessions").set(len(self._sessions))
                text = render_prometheus(
                    reg,
                    labels={
                        "repro_version": str(meta["repro_version"]),
                        "config_hash": str(meta["config_hash"])[:12],
                    },
                )
                return 200, text.encode("utf-8"), CONTENT_TYPE
            snapshot = self.registry.to_dict()
            snapshot["sessions"] = len(self._sessions)
            snapshot["meta"] = meta
            snapshot["config_hash"] = meta["config_hash"]
            return as_json(200, snapshot)
        return as_json(
            404, {"error": f"no route {path!r} (try /healthz or /metrics)"}
        )


__all__ = ["DecisionService", "ServiceConfig"]
