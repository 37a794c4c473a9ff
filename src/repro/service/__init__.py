"""The online DVFS decision service: PCSTALL as a long-running server.

The paper's contribution is an *online* mechanism - PCSTALL picks every
V/f domain's next-epoch frequency ahead of execution, every epoch. This
package serves that decision loop over a socket so external agents (a
GPU driver shim, a cluster scheduler, a replayed trace) can consume it:

* :mod:`repro.service.protocol` - the length-prefixed JSON wire
  protocol and the wire <-> simulator object codecs.
* :mod:`repro.service.server` - :class:`DecisionService`, the asyncio
  server (``repro serve``): per-session controller state, each
  observation decided in the read that delivers it, admission control,
  SHED backpressure, graceful shutdown, ``/healthz`` + ``/metrics``.
* :mod:`repro.service.client` - :class:`DecisionClient`, a blocking
  client with timeout/retry built on the sweep runtime's
  :class:`~repro.runtime.executor.RetryPolicy`.
* :mod:`repro.service.replay` - ``repro replay``: feed a recorded
  epoch trace through a live server and verify every returned decision
  is bit-identical to the offline simulation that produced the trace.

The service code is stdlib-only; the server module also imports the
LEARNED design's model stack (numpy) so it loads before the server
listens, not on the event loop.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.client import (
        DecisionClient,
        RequestShed,
        ServiceError,
        ServiceShutdown,
        SessionRejected,
        check_health,
        wait_until_healthy,
    )
    from repro.service.protocol import DEFAULT_HEALTH_PORT, DEFAULT_PORT, ProtocolError
    from repro.service.replay import ReplayReport, replay_trace
    from repro.service.server import DecisionService, ServiceConfig

__getattr__, __dir__ = lazy_exports(__name__, {
    "client": ("DecisionClient", "RequestShed", "ServiceError", "ServiceShutdown",
               "SessionRejected", "check_health", "wait_until_healthy"),
    "protocol": ("DEFAULT_HEALTH_PORT", "DEFAULT_PORT", "ProtocolError"),
    "replay": ("ReplayReport", "replay_trace"),
    "server": ("DecisionService", "ServiceConfig"),
})

__all__ = [
    "DEFAULT_HEALTH_PORT",
    "DEFAULT_PORT",
    "DecisionClient",
    "DecisionService",
    "ProtocolError",
    "ReplayReport",
    "RequestShed",
    "ServiceConfig",
    "ServiceError",
    "ServiceShutdown",
    "SessionRejected",
    "check_health",
    "replay_trace",
    "wait_until_healthy",
]
