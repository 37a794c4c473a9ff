"""Blocking client for the decision service, with timeout and retry.

:class:`DecisionClient` speaks the :mod:`repro.service.protocol` frame
protocol over a plain socket (blocking I/O - the client is the "GPU
side" of the loop and has nothing useful to do while a decision is in
flight). Transient failures reuse the sweep runtime's
:class:`~repro.runtime.executor.RetryPolicy` semantics: jitterless
exponential backoff, a bounded attempt budget, deterministic schedule.
Two things retry:

* **connect** - a refused/unreachable server (it may still be binding);
* **shed observations** - the server answered ``shed`` (backpressure).
  Resending is safe by construction: the server applies an observation
  only at the exact expected epoch index, so a shed-then-resent epoch
  can never be double-applied.

Everything else (protocol errors, rejected sessions, shutdown notices)
surfaces as a :class:`ServiceError` subclass immediately.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Optional

from repro.runtime.executor import RetryPolicy
from repro.service import protocol as proto
from repro.telemetry.schema import epoch_result_to_wire, sim_config_to_wire


class ServiceError(RuntimeError):
    """Base class for decision-service client errors."""


class SessionRejected(ServiceError):
    """The server refused to open a session (capacity, bad config...)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class RequestShed(ServiceError):
    """An observation was shed and the retry budget ran out."""


class ServiceShutdown(ServiceError):
    """The server announced shutdown or closed the connection."""


def default_retry() -> RetryPolicy:
    """Client-side policy: a few quick attempts, sub-second backoff.

    ``retryable`` lists the client-visible transient failures;
    :meth:`RetryPolicy.delay_for` supplies the same jitterless
    exponential schedule the sweep executor uses.
    """
    return RetryPolicy(
        max_attempts=5,
        backoff_base_s=0.05,
        backoff_factor=2.0,
        backoff_max_s=1.0,
        retryable=(ConnectionError, OSError),
    )


class DecisionClient:
    """One session against a live :class:`~repro.service.server.DecisionService`.

    Usage::

        with DecisionClient(port=port).connect() as client:
            freqs = client.open_session("PCSTALL", sim_config)
            for epoch in range(n_epochs):
                result = run_the_epoch_at(freqs)
                freqs = client.observe(epoch, result)
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = proto.DEFAULT_PORT,
        timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry or default_retry()
        self._sock: Optional[socket.socket] = None
        self._seq = 0
        self.session_id: Optional[int] = None
        self.n_domains = 0
        #: Observability for callers (the replay report prints these).
        self.sheds = 0
        self.connect_retries = 0

    # ------------------------------------------------------------------

    def connect(self) -> "DecisionClient":
        """Open the TCP connection, retrying refused connects."""
        attempt = 0
        while True:
            attempt += 1
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
                self._sock.settimeout(self.timeout_s)
                return self
            except OSError as exc:
                if attempt >= self.retry.max_attempts or not self.retry.is_retryable(exc):
                    raise
                self.connect_retries += 1
                time.sleep(self.retry.delay_for(attempt + 1))

    def open_session(
        self,
        design: str,
        sim_config: Any,
        objective: str = "",
    ) -> List[float]:
        """Open a session; returns the decision for epoch 0.

        ``sim_config`` may be a :class:`~repro.config.SimConfig` or an
        already-wire-form dict (e.g. straight out of a trace header).
        """
        wire_config = (
            sim_config if isinstance(sim_config, dict)
            else sim_config_to_wire(sim_config)
        )
        self._send({
            "type": proto.MSG_OPEN,
            "protocol": proto.PROTOCOL_VERSION,
            "design": design,
            "config": wire_config,
            "objective": objective,
        })
        reply = self._recv()
        if reply.get("type") == proto.MSG_ERROR:
            raise SessionRejected(str(reply.get("code")), str(reply.get("error")))
        if reply.get("type") != proto.MSG_OPEN_OK:
            raise ServiceError(f"unexpected open reply: {reply!r}")
        self.session_id = int(reply["session"])  # type: ignore[arg-type]
        self.n_domains = int(reply["n_domains"])  # type: ignore[arg-type]
        return [float(f) for f in reply["decision"]]  # type: ignore[union-attr]

    def observe(
        self,
        epoch: int,
        result: Any,
        truth_lines: Any = None,
    ) -> List[float]:
        """Report epoch ``epoch``; returns the decision for ``epoch + 1``.

        ``result`` may be a live :class:`~repro.gpu.gpu.EpochResult` or
        its wire dict; ``truth_lines`` a list of
        :class:`~repro.core.sensitivity.LinearSensitivity`, a wire
        ``[[i0, slope], ...]`` list, or None. A ``shed`` reply is
        retried with backoff up to the policy's attempt budget.
        """
        wire_result = (
            result if isinstance(result, dict) else epoch_result_to_wire(result)
        )
        wire_truth = (
            truth_lines
            if truth_lines is None or isinstance(truth_lines, list)
            and all(isinstance(x, (list, tuple)) for x in truth_lines)
            else proto.lines_to_wire(truth_lines)
        )
        attempt = 0
        while True:
            attempt += 1
            self._seq += 1
            self._send({
                "type": proto.MSG_OBSERVE,
                "seq": self._seq,
                "epoch": epoch,
                "result": wire_result,
                "truth": wire_truth,
            })
            reply = self._recv_for(self._seq)
            rtype = reply.get("type")
            if rtype == proto.MSG_DECISION:
                return [float(f) for f in reply["decision"]]  # type: ignore[union-attr]
            if rtype == proto.MSG_SHED:
                self.sheds += 1
                if attempt >= self.retry.max_attempts:
                    raise RequestShed(
                        f"epoch {epoch} shed {attempt} times "
                        f"(reason {reply.get('reason')!r})"
                    )
                time.sleep(self.retry.delay_for(attempt + 1))
                continue
            if rtype == proto.MSG_ERROR:
                raise ServiceError(
                    f"{reply.get('code')}: {reply.get('error')}"
                )
            raise ServiceError(f"unexpected reply to observe: {reply!r}")

    def close(self) -> None:
        """Orderly goodbye; quiet on a server that already went away."""
        if self._sock is None:
            return
        try:
            self._send({"type": proto.MSG_CLOSE})
            proto.recv_frame(self._sock)  # bye (or EOF), best-effort
        except (OSError, ServiceError, proto.ProtocolError):
            pass
        finally:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "DecisionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _send(self, message: Dict[str, object]) -> None:
        if self._sock is None:
            raise ServiceError("client is not connected; call connect() first")
        try:
            proto.send_frame(self._sock, message)
        except OSError as exc:
            raise ServiceShutdown(f"server connection lost: {exc}") from None

    def _recv(self) -> Dict[str, object]:
        if self._sock is None:
            raise ServiceError("client is not connected; call connect() first")
        try:
            reply = proto.recv_frame(self._sock)
        except socket.timeout:
            raise ServiceError(
                f"no reply within {self.timeout_s}s"
            ) from None
        if reply is None:
            raise ServiceShutdown("server closed the connection")
        if reply.get("type") == proto.MSG_SHUTDOWN:
            raise ServiceShutdown("server is shutting down")
        return reply

    def _recv_for(self, seq: int) -> Dict[str, object]:
        """Next reply correlated to ``seq``."""
        while True:
            reply = self._recv()
            reply_seq = reply.get("seq")
            if reply_seq is None or reply_seq == seq:
                return reply
            # A reply to an older (superseded) request: drop it.


# ----------------------------------------------------------------------
# Health helpers (plain HTTP against the service's second listener)

def check_health(
    host: str = "127.0.0.1",
    port: int = proto.DEFAULT_HEALTH_PORT,
    timeout_s: float = 2.0,
) -> Dict[str, object]:
    """GET /healthz; returns the parsed body (raises on refusal)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        body = json.loads(response.read().decode("utf-8"))
        body["http_status"] = response.status
        return body
    finally:
        conn.close()


def wait_until_healthy(
    host: str = "127.0.0.1",
    port: int = proto.DEFAULT_HEALTH_PORT,
    timeout_s: float = 10.0,
    interval_s: float = 0.1,
) -> Dict[str, object]:
    """Poll /healthz until it answers 200, or raise after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            body = check_health(host, port, timeout_s=interval_s * 5)
            if body.get("http_status") == 200:
                return body
        except (OSError, ValueError) as exc:
            last_error = exc
        time.sleep(interval_s)
    raise ServiceError(
        f"service on {host}:{port} not healthy after {timeout_s}s "
        f"(last error: {last_error})"
    )


__all__ = [
    "DecisionClient",
    "RequestShed",
    "ServiceError",
    "ServiceShutdown",
    "SessionRejected",
    "check_health",
    "default_retry",
    "wait_until_healthy",
]
