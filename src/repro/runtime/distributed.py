"""The sweep broker: one grid, served to worker processes over sockets.

This is the sweep runtime's one parallel path.
:class:`~repro.runtime.executor.SweepExecutor` with ``max_workers=N``
forks N :class:`SweepWorker` processes, each joined to a private broker
by its own socket pair, so a private sweep opens no port. Only a broker
attached as ``SweepExecutor(broker=...)`` (``--listen HOST:PORT``)
listens, and so also accepts ``repro worker`` processes from other
hosts. Either way the broker guarantees:

* **Bit-identical results.** Workers execute the exact same
  :func:`~repro.runtime.executor.run_task` path as a serial run and ship
  the :class:`~repro.dvfs.simulation.RunResult` back in its exact JSON
  form (:func:`~repro.telemetry.schema.run_result_to_wire`, the form
  the result cache stores). The broker decodes it with type checks and
  nothing else: a payload that fails them, or names another cell's
  key, is a corrupt result, never code the broker runs.
* **Exactly-once cells.** Every cell is leased to at most one worker at
  a time; a result is accepted only from the current leaseholder at the
  current attempt: a late result from a reclaimed lease is
  acknowledged as not accepted and discarded (the worker counts it as
  rejected), so each cell's result is recorded once.
* **Fault tolerance under the executor's RetryPolicy.** A worker times
  its own cell (``task_timeout_s`` rides in the task frame), reports an
  overrun as an ordinary ``SweepTimeoutError`` failure and takes the
  next cell. Workers heartbeat their leases; a dead worker (connection
  drops) or a hung one (lease deadline passes, or the hard ceiling of
  ``task_timeout_s + lease_s`` is hit while heartbeats keep arriving)
  has its cell *reclaimed* (counted in the sweep's ``reclaims``). Every
  failed attempt is charged by the executor, as a serial run's is,
  against ``max_attempts`` and gated by the jitterless backoff;
  exhaustion follows ``on_exhausted``. A retried
  cell's final attempt runs in-process, on the thread that called
  :meth:`SweepBroker.serve`.

Wire protocol
-------------
The same 4-byte big-endian length-prefixed JSON frames as the decision
service (:mod:`repro.runtime.wire`), over one stream connection per
worker (a socket pair for a forked worker, TCP for a remote one).
Worker to broker::

    hello      {protocol, worker}
    ready      {}                          lease the next runnable cell
    heartbeat  {index}                     renew the held lease (no reply)
    result     {index, attempt, key, wall_s, result}
    fail       {index, attempt, error_type, error}
    goodbye    {}

Broker to worker: ``hello_ok {lease_s, heartbeat_s, n_tasks}``,
``task {index, attempt, key, task, lease_s, timeout_s}``,
``idle {retry_after_s}`` (nothing runnable right now), ``done`` (sweep
complete), ``ack {accepted}``, ``bye``, ``error {error}``.

Tasks cross the wire in JSON (config via the telemetry schema's
canonical form, objectives via their canonical class + state). A worker
refuses a task whose rebuilt content-hash key differs from the
broker's (version skew, or state the wire cannot carry) with a
``TaskKeyMismatch`` failure, and the broker runs that cell in-process
without charging the attempt - before a single wrong number is computed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set

from repro.core.objectives import (
    EDnPObjective,
    PerformanceCapObjective,
    QoSDeadlineObjective,
    StaticObjective,
)
from repro.obs.log import get_logger
from repro.runtime.cache import describe_objective
from repro.runtime.executor import (
    FailedCell,
    LeaseExpired,
    SweepTask,
    SweepTimeoutError,
    _run_task_timed,
)
from repro.runtime.faults import CorruptResultError, InjectedFaultError
from repro.runtime.progress import SOURCE_REMOTE, SOURCE_SERIAL
from repro.runtime.wire import (
    FrameReceiver,
    ProtocolError,
    ReceiveTimeout,
    recv_frame,
    send_frame,
)
from repro.telemetry.schema import (
    run_result_from_wire,
    run_result_to_wire,
    sim_config_from_wire,
    sim_config_to_wire,
)

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

    from repro.runtime.executor import SweepExecutor

_log = get_logger("distributed")

#: Default broker port (the decision service owns 8472/8473).
DEFAULT_BROKER_PORT = 8474

#: Broker protocol revision; a ``hello`` carrying a different one is
#: rejected before any task crosses the wire.
BROKER_PROTOCOL_VERSION = 1

#: Seconds between the broker's checks for expired leases and ended
#: sweeps, and between a handler's polls of its connection.
POLL_S = 0.2
#: How long a worker's ``ready`` may wait for a cell to come due before
#: the broker answers ``idle``.
IDLE_RETRY_S = 0.5

# Worker -> broker message types.
MSG_HELLO = "hello"
MSG_READY = "ready"
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_FAIL = "fail"
MSG_GOODBYE = "goodbye"

# Broker -> worker message types.
MSG_HELLO_OK = "hello_ok"
MSG_TASK = "task"
MSG_IDLE = "idle"
MSG_DONE = "done"
MSG_ACK = "ack"
MSG_BYE = "bye"
MSG_ERROR = "error"


class RemoteCellError(RuntimeError):
    """A worker-side failure whose type has no local reconstruction."""

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


class WorkerError(RuntimeError):
    """The worker agent loop cannot continue (broker gone, protocol
    violation, malformed task frame...)."""


#: ``fail`` error type of a task the worker could not rebuild faithfully.
TASK_KEY_MISMATCH = "TaskKeyMismatch"


# ----------------------------------------------------------------------
# Task and error wire codecs

#: Worker-side failure types the broker rebuilds as their real classes,
#: so retryability, the error type a retry's event line names and the
#: type a sweep raises are the same as for in-process runs.
def _error_registry() -> Dict[str, type]:
    return {
        cls.__name__: cls
        for cls in (
            InjectedFaultError, CorruptResultError, SweepTimeoutError,
            ValueError, KeyError, TypeError, RuntimeError,
        )
    }


def error_from_wire(remote_type: str, message: str) -> BaseException:
    cls = _error_registry().get(remote_type)
    if cls is not None:
        return cls(message)
    return RemoteCellError(remote_type, message)


#: Objective reconstruction from the canonical ``describe_objective``
#: form ({"__class__": name, ...public state}).
def objective_from_wire(wire: Any) -> Optional[Any]:
    if wire is None:
        return None
    try:
        name = wire["__class__"]
        if name == "StaticObjective":
            return StaticObjective(float(wire["f_ghz"]))
        if name == "EDnPObjective":
            return EDnPObjective(int(wire["n"]), float(wire["price_scale"]))
        if name == "PerformanceCapObjective":
            return PerformanceCapObjective(float(wire["max_degradation"]))
        if name == "QoSDeadlineObjective":
            return QoSDeadlineObjective(float(wire["target"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed objective: {exc}") from None
    raise ProtocolError(f"unknown objective class {name!r}")


def sweep_task_to_wire(task: "SweepTask") -> Dict[str, object]:
    """JSON form of a sweep cell (config in its canonical wire shape)."""
    return {
        "workload": task.workload,
        "design": task.design,
        "config": sim_config_to_wire(task.config),
        "scale": task.scale,
        "max_epochs": task.max_epochs,
        "oracle_sample_freqs": task.oracle_sample_freqs,
        "collect_accuracy": task.collect_accuracy,
        "objective": describe_objective(task.objective),
    }


def sweep_task_from_wire(wire: Mapping[str, Any]) -> "SweepTask":
    """Rebuild a :class:`SweepTask`; raises :class:`ProtocolError` on a
    malformed payload. Callers should verify the rebuilt task's
    ``key()`` against the broker's expected key."""
    try:
        freqs = wire["oracle_sample_freqs"]
        return SweepTask(
            workload=str(wire["workload"]),
            design=str(wire["design"]),
            config=sim_config_from_wire(wire["config"]),
            scale=float(wire["scale"]),
            max_epochs=int(wire["max_epochs"]),
            oracle_sample_freqs=None if freqs is None else int(freqs),
            collect_accuracy=bool(wire["collect_accuracy"]),
            objective=objective_from_wire(wire["objective"]),
        )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed sweep task: {exc}") from None


# ----------------------------------------------------------------------
# Broker


@dataclass
class _Lease:
    """One outstanding grant of one cell to one worker connection."""

    index: int
    worker: str
    attempt: int
    deadline: float  # monotonic; renewed by heartbeats
    hard_deadline: Optional[float]  # monotonic ceiling (task_timeout_s)

    def renew(self, lease_s: float) -> None:
        deadline = time.monotonic() + lease_s
        if self.hard_deadline is not None:
            deadline = min(deadline, self.hard_deadline)
        self.deadline = deadline

    @property
    def expired(self) -> bool:
        return time.monotonic() > self.deadline


class SweepBroker:
    """Serves one sweep's task grid to worker processes.

    :class:`~repro.runtime.executor.SweepExecutor` serves every parallel
    sweep through one: a private broker (``port=None``) that opens no
    port and serves only the workers it forks, or the broker attached as
    ``SweepExecutor(broker=SweepBroker(...))``, which listens on
    ``host:port`` so ``repro worker`` processes on other hosts can join.
    A listening broker runs no code a worker sends, but it trusts the
    numbers of every worker that connects, so bind it only where
    untrusted hosts cannot reach it. The executor's ``run()`` blocks in
    :meth:`serve` until every pending cell has been computed (or
    exhausted its retry budget). The broker owns no policy of its own -
    retries, caching and instrumentation all flow through the executor
    it serves.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = DEFAULT_BROKER_PORT,
        lease_s: float = 15.0,
    ) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.host = host
        #: None: listen nowhere; serve only the workers serve() forks.
        self.port = port
        self.lease_s = lease_s
        #: Actual bound port (useful with ``port=0``), set by serve()
        #: when it listens.
        self.bound_port: Optional[int] = None
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._reset_sweep_state()

    def _reset_sweep_state(
        self,
        executor: Optional["SweepExecutor"] = None,
        tasks: Sequence["SweepTask"] = (),
        keys: Sequence[str] = (),
        pending: Sequence[int] = (),
        results: Optional[List] = None,
    ) -> None:
        """Fresh state for a sweep of ``tasks[pending]`` (default: none)."""
        self._executor = executor
        self._tasks = tasks
        self._keys = keys
        self._results = results
        self._pending = set(pending)  # runnable on a worker
        self._local: Set[int] = set()  # runnable in-process
        self._pinned: Set[int] = set()  # cells that only run in-process
        self._leases: Dict[int, _Lease] = {}
        self._done: Set[int] = set()
        self._attempts = {i: 0 for i in pending}
        self._earliest = {i: 0.0 for i in pending}  # backoff gate, monotonic
        self._fatal: Optional[BaseException] = None
        self._finished = False
        self._conns: List[socket.socket] = []
        self._handler_threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Main entry point (runs on the executor's thread)

    def serve(
        self,
        executor: "SweepExecutor",
        tasks: Sequence["SweepTask"],
        keys: Sequence[str],
        pending: Sequence[int],
        results: List,
        local_workers: int = 0,
    ) -> None:
        """Serve ``tasks[pending]`` to workers; fills ``results`` in place.

        ``keys[i]`` is ``tasks[i].key()``. ``local_workers`` worker
        processes are forked, each on its own socket pair, once any
        listener is bound and before any broker thread starts; they are
        terminated and joined before this returns or raises.
        """
        with self._lock:
            if self._executor is not None:
                raise RuntimeError("broker is already serving a sweep")
            # Bind before claiming the sweep, so a port in use leaves
            # the broker free for the next serve().
            listener = None if self.port is None else self._listen()
            self._reset_sweep_state(executor, tasks, keys, pending, results)
        if listener is not None:
            # Printed as well as noted: with port 0 this line is the only
            # way to learn where `repro worker --connect` should point.
            print(f"broker listening on {self.host}:{self.bound_port}", flush=True)
            executor.progress.note(
                f"broker listening on {self.host}:{self.bound_port} "
                f"({len(pending)} cell(s) to distribute)"
            )
        workers: List["BaseProcess"] = []
        accept_thread: Optional[threading.Thread] = None
        try:
            self._fork_workers(local_workers, listener, workers)
            for thread in self._handler_threads:  # only after the last fork
                thread.start()
            if listener is not None:
                accept_thread = threading.Thread(
                    target=self._accept_loop, args=(listener,),
                    name="sweep-broker-accept", daemon=True,
                )
                accept_thread.start()
            # A sweep that only ever expected remote workers waits for them.
            self._serve_loop(fall_back=bool(local_workers) or listener is None)
        finally:
            with self._cond:
                self._finished = True
                fatal = self._fatal
                self._cond.notify_all()  # idle handlers answer `done`
            for proc in workers:
                proc.terminate()
            for proc in workers:
                proc.join()
            if listener is not None:
                with contextlib.suppress(OSError):
                    listener.shutdown(socket.SHUT_RDWR)  # wakes the accept thread
                listener.close()
            if accept_thread is not None:
                accept_thread.join(timeout=5.0)
            for thread in list(self._handler_threads):
                if thread.ident is not None:  # an interrupted fork leaves some unstarted
                    thread.join(timeout=5.0)
            with self._lock:
                conns = self._conns
                self._reset_sweep_state()
                self._finished = True
            for conn in conns:
                with contextlib.suppress(OSError):
                    conn.close()
        if fatal is not None:
            raise fatal

    def _listen(self) -> socket.socket:
        """Bind and listen on ``host:port``; sets :attr:`bound_port`."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen()
        except BaseException:
            listener.close()
            raise
        self.bound_port = listener.getsockname()[1]
        return listener

    def _fork_workers(
        self, n: int, listener: Optional[socket.socket], into: List["BaseProcess"]
    ) -> None:
        """Fork ``n`` workers into ``into``, each joined to this broker by
        its own socket pair, and set up (but do not start) a handler
        thread per pair. Forked, not spawned: they inherit workloads
        registered at run time, ``REPRO_FAULT_PLAN`` and callables
        patched in place, so they compute what a serial run here would."""
        ctx = multiprocessing.get_context("fork")
        for k in range(n):
            mine, theirs = socket.socketpair()
            proc = ctx.Process(
                target=_local_worker, args=(theirs, [listener, *self._conns, mine]),
                name=f"sweep-worker-{k}", daemon=True,
            )
            try:
                proc.start()
            except OSError as exc:  # e.g. a process limit
                mine.close()
                self._executor.progress.note(  # type: ignore[union-attr]
                    f"cannot fork sweep workers: {exc!r}"
                )
                return
            finally:
                theirs.close()
            into.append(proc)
            self._conns.append(mine)
            thread = threading.Thread(
                target=self._handle, args=(mine, f"local:{proc.pid}"),
                name=f"sweep-broker-local:{proc.pid}", daemon=True,
            )
            self._handler_threads.append(thread)

    def _serve_loop(self, fall_back: bool) -> None:
        """Drive the sweep to completion on the calling thread: run
        in-process cells as they come due and reclaim expired leases.
        With ``fall_back``, the pending cells run in-process once no
        worker is connected (a forked worker is connected from birth
        until it exits)."""
        with self._cond:
            while self._fatal is None and len(self._done) < len(self._attempts):
                i = self._pop_due(self._local)
                if i is not None:
                    self._run_local_locked(i)
                    continue
                if fall_back and self._pending and not self._conns:
                    self._executor.progress.note(  # type: ignore[union-attr]
                        f"no worker left: running {len(self._pending)} "
                        f"cell(s) in-process"
                    )
                    self._pinned |= self._pending
                    self._local |= self._pending
                    self._pending.clear()
                    continue
                self._wait_locked(self._local, time.monotonic() + POLL_S)
                self._reap_expired_locked()

    def _pop_due(self, queue: Set[int]) -> Optional[int]:
        """Take the lowest cell of ``queue`` whose backoff has elapsed."""
        now = time.monotonic()
        i = min((i for i in queue if self._earliest[i] <= now), default=None)
        if i is not None:
            queue.discard(i)
        return i

    def _wait_locked(self, queue: Set[int], until: float) -> None:
        """Wait for a state change, ``until``, or a cell of ``queue``
        coming due, whichever is first."""
        wake = min([until, *(self._earliest[i] for i in queue)])
        self._cond.wait(max(0.0, wake - time.monotonic()))

    def _run_local_locked(self, i: int) -> None:
        """One attempt at cell ``i`` in this process; the lock is
        released while it computes, so workers keep being served."""
        ex = self._executor
        assert ex is not None and self._results is not None
        task = self._tasks[i]
        self._attempts[i] += 1
        attempt = self._attempts[i]
        if i not in self._pinned:
            ex.progress.note(
                f"final attempt {attempt} for {task.label}: running in-process"
            )
        error: Optional[Exception] = None
        self._lock.release()
        try:
            result, elapsed = _run_task_timed(task, attempt)
        except Exception as exc:  # noqa: BLE001 - charged like a worker's failure
            error = exc
        finally:
            self._lock.acquire()
        if error is not None:
            self._fail_or_requeue_locked(i, error)
            return
        self._results[i] = result
        ex._finish_cell(task, self._keys[i], result, elapsed, SOURCE_SERIAL, attempt)
        self._done.add(i)

    # ------------------------------------------------------------------
    # Accept + per-connection handler threads

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, addr = listener.accept()
            except OSError:
                return  # listener shut down by serve()
            with self._lock:
                if self._finished:
                    conn.close()
                    return
                self._conns.append(conn)
                thread = threading.Thread(
                    target=self._handle,
                    args=(conn, f"{addr[0]}:{addr[1]}"),
                    name=f"sweep-broker-{addr[0]}:{addr[1]}",
                    daemon=True,
                )
                self._handler_threads.append(thread)
            thread.start()

    def _handle(self, conn: socket.socket, peer: str) -> None:
        receiver = FrameReceiver(conn, strict=True)
        worker = peer
        held: Optional[int] = None
        try:
            while True:
                with self._lock:
                    finished = self._finished
                if finished and held is None:
                    self._send_quiet(conn, {"type": MSG_DONE})
                    return
                try:
                    msg = receiver.recv(POLL_S)
                except ReceiveTimeout:
                    continue
                if msg is None:
                    return  # clean close; `finally` reclaims any held lease
                held = self._dispatch(conn, worker, msg, held)
                if held is _CLOSE:
                    return
        except ProtocolError as exc:
            self._note(f"worker {worker}: protocol violation: {exc}")
            self._send_quiet(conn, {"type": MSG_ERROR, "error": str(exc)})
        except OSError as exc:
            self._note(f"worker {worker}: connection error: {exc}")
        finally:
            if held is not None and held is not _CLOSE:
                self._reclaim(held, worker, "worker disconnected")
            with contextlib.suppress(OSError):
                conn.close()
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _dispatch(
        self,
        conn: socket.socket,
        worker: str,
        msg: Dict[str, object],
        held: Optional[int],
    ) -> Optional[int]:
        """Process one worker frame; returns the (possibly changed) held
        cell index, or :data:`_CLOSE` to end the connection."""
        mtype = msg.get("type")
        if mtype == MSG_HELLO:
            if msg.get("protocol") != BROKER_PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: broker speaks "
                    f"{BROKER_PROTOCOL_VERSION}, worker sent "
                    f"{msg.get('protocol')!r}"
                )
            with self._lock:
                n_tasks = len(self._attempts)
            send_frame(conn, {
                "type": MSG_HELLO_OK,
                "protocol": BROKER_PROTOCOL_VERSION,
                "lease_s": self.lease_s,
                "heartbeat_s": min(self.lease_s / 3.0, 5.0),
                "n_tasks": n_tasks,
            })
            _log.info(f"worker {worker} connected ({msg.get('worker', '?')})")
            return held
        if mtype == MSG_READY:
            reply = self._next_for(worker)
            send_frame(conn, reply)
            if reply["type"] == MSG_TASK:
                return int(reply["index"])  # type: ignore[arg-type]
            if reply["type"] == MSG_DONE:
                return _CLOSE
            return held
        if mtype == MSG_HEARTBEAT:
            self._renew(msg.get("index"), worker)
            return held  # heartbeats are one-way
        if mtype == MSG_RESULT:
            accepted = self._accept_result(worker, msg)
            self._send_quiet(conn, {"type": MSG_ACK, "accepted": accepted})
            return None
        if mtype == MSG_FAIL:
            self._accept_failure(worker, msg)
            self._send_quiet(conn, {"type": MSG_ACK, "accepted": True})
            return None
        if mtype == MSG_GOODBYE:
            self._send_quiet(conn, {"type": MSG_BYE})
            return _CLOSE
        raise ProtocolError(f"unknown message type {mtype!r}")

    # ------------------------------------------------------------------
    # Grid state transitions (all under the lock)

    def _note(self, message: str) -> None:
        """A sweep note; a log line once the sweep ended (workers reaped)."""
        with self._lock:
            if self._executor is not None and not self._finished:
                self._executor.progress.note(message)
            else:
                _log.info(message)

    @staticmethod
    def _send_quiet(conn: socket.socket, message: Dict[str, object]) -> None:
        with contextlib.suppress(OSError):
            send_frame(conn, message)

    def _next_for(self, worker: str) -> Dict[str, object]:
        """Answer a worker's ``ready``: a task, ``done``, or - once no
        cell came due within :data:`IDLE_RETRY_S` - ``idle``. Waiting here
        instead of in the worker means a finished sweep (or a cell whose
        backoff ends) wakes every idle worker at once."""
        deadline = time.monotonic() + IDLE_RETRY_S
        with self._cond:
            while True:
                if (
                    self._executor is None
                    or self._finished
                    or self._fatal is not None
                    or len(self._done) >= len(self._attempts)
                ):
                    return {"type": MSG_DONE}
                i = self._pop_due(self._pending)
                if i is not None:
                    return self._grant_locked(i, worker)
                if time.monotonic() >= deadline:
                    return {"type": MSG_IDLE, "retry_after_s": 0.0}
                self._wait_locked(self._pending, deadline)

    def _grant_locked(self, i: int, worker: str) -> Dict[str, object]:
        """Lease cell ``i`` to ``worker``; returns its ``task`` frame."""
        ex = self._executor
        assert ex is not None
        self._attempts[i] += 1
        attempt = self._attempts[i]
        task = self._tasks[i]
        hard = None
        if ex.task_timeout_s is not None:
            hard = time.monotonic() + ex.task_timeout_s + self.lease_s
        lease = _Lease(
            index=i, worker=worker, attempt=attempt,
            deadline=0.0, hard_deadline=hard,
        )
        lease.renew(self.lease_s)
        self._leases[i] = lease
        return {
            "type": MSG_TASK,
            "index": i,
            "attempt": attempt,
            "key": self._keys[i],
            "task": sweep_task_to_wire(task),
            "lease_s": self.lease_s,
            "timeout_s": ex.task_timeout_s,
        }

    def _renew(self, index: object, worker: str) -> None:
        with self._lock:
            try:
                lease = self._leases.get(int(index))  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return
            if lease is not None and lease.worker == worker:
                lease.renew(self.lease_s)

    def _accept_result(self, worker: str, msg: Dict[str, object]) -> bool:
        """Record a completed cell; False when the result is late or
        duplicate (its lease was reclaimed and possibly reassigned)."""
        try:
            i = int(msg["index"])  # type: ignore[arg-type]
            attempt = int(msg["attempt"])  # type: ignore[arg-type]
            wall_s = float(msg.get("wall_s", 0.0))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed result frame: {exc}") from None
        with self._lock:
            ex = self._executor
            lease = self._leases.get(i)
            if (
                ex is None
                or i in self._done
                or lease is None
                or lease.worker != worker
                or lease.attempt != attempt
            ):
                return False
            task = self._tasks[i]
            self._leases.pop(i, None)
            try:
                result = self._decode_result(task, self._keys[i], msg)
            except CorruptResultError as exc:
                self._fail_or_requeue_locked(i, exc)
                return False
            assert self._results is not None
            self._results[i] = result
            ex._finish_cell(task, self._keys[i], result, wall_s, SOURCE_REMOTE, attempt)
            self._done.add(i)
            self._cond.notify_all()
            return True

    @staticmethod
    def _decode_result(task: "SweepTask", key: str, msg: Dict[str, object]) -> Any:
        """The shipped RunResult of ``task``, or CorruptResultError."""
        if msg.get("key") != key:
            raise CorruptResultError(
                f"result for {task.label} carries key {msg.get('key')!r}, "
                f"expected {key!r}"
            )
        try:
            return run_result_from_wire(msg.get("result"))
        except ValueError as exc:
            raise CorruptResultError(
                f"undecodable result for {task.label}: {exc}"
            ) from None

    def _accept_failure(self, worker: str, msg: Dict[str, object]) -> None:
        try:
            i = int(msg["index"])  # type: ignore[arg-type]
            attempt = int(msg["attempt"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed fail frame: {exc}") from None
        error_type = str(msg.get("error_type", "RemoteCellError"))
        error = str(msg.get("error", ""))
        with self._lock:
            ex = self._executor
            lease = self._leases.get(i)
            if (
                ex is None
                or i in self._done
                or lease is None
                or lease.worker != worker
                or lease.attempt != attempt
            ):
                return  # late failure report for a reclaimed lease
            self._leases.pop(i, None)
            if error_type == TASK_KEY_MISMATCH:
                # The attempt never ran, so it is not charged; the cell
                # runs in-process from now on.
                ex.progress.note(
                    f"{self._tasks[i].label} cannot cross the wire "
                    f"({error}); running it in-process"
                )
                self._attempts[i] -= 1
                self._pinned.add(i)
                self._queue_locked(i, 0.0)
                return
            self._fail_or_requeue_locked(i, error_from_wire(error_type, error))

    def _queue_locked(self, i: int, delay: float) -> None:
        """Make cell ``i`` runnable after ``delay`` seconds: in-process
        when it is pinned there or its next attempt is its last, on a
        worker otherwise."""
        ex = self._executor
        assert ex is not None
        self._earliest[i] = time.monotonic() + delay
        if i in self._pinned or self._attempts[i] + 1 >= ex.retry.max_attempts:
            self._local.add(i)
        else:
            self._pending.add(i)
        self._cond.notify_all()

    def _fail_or_requeue_locked(self, i: int, exc: BaseException) -> None:
        """Charge a failed attempt through the executor, and queue the
        cell again or settle it; caller holds the lock."""
        ex = self._executor
        assert ex is not None and self._results is not None
        try:
            outcome = ex._charge_failure(self._tasks[i], self._keys[i], self._attempts[i], exc)
        except BaseException as fatal:  # on_exhausted="raise"
            self._fatal = fatal
        else:
            if not isinstance(outcome, FailedCell):
                self._queue_locked(i, outcome)
                return
            self._results[i] = outcome
        self._done.add(i)
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Lease reclamation (dead and hung workers)

    def _reap_expired_locked(self) -> None:
        """Reclaim every lease past its deadline; caller holds the lock."""
        for i in [i for i, ls in self._leases.items() if ls.expired]:
            self._reclaim_locked(i, self._leases[i].worker, "lease expired")

    def _reclaim(self, i: int, worker: str, cause: str) -> None:
        with self._lock:
            lease = self._leases.get(i)
            if self._finished or lease is None or lease.worker != worker:
                return  # sweep over, or already reclaimed (or completed)
            self._reclaim_locked(i, worker, cause)

    def _reclaim_locked(self, i: int, worker: str, cause: str) -> None:
        lease = self._leases.pop(i)
        ex = self._executor
        assert ex is not None
        task = self._tasks[i]
        ex.progress.record_reclaim(task.label, worker, lease.attempt, cause)
        self._fail_or_requeue_locked(
            i,
            LeaseExpired(
                f"cell {task.label} attempt {lease.attempt} on {worker}: {cause}"
            ),
        )


#: Sentinel returned by ``_dispatch`` to end a worker connection.
_CLOSE: int = -1


# ----------------------------------------------------------------------
# Worker agent


@dataclass
class WorkerSummary:
    """What one worker session did (printed by ``repro worker``)."""

    completed: int = 0
    failed: int = 0
    rejected: int = 0  # results the broker discarded as late/duplicate


@contextlib.contextmanager
def _cell_timeout(seconds: Optional[float], message: str) -> Iterator[None]:
    """Raise ``SweepTimeoutError`` here once ``seconds`` have passed. Only
    the main thread gets signals; elsewhere the broker's hard lease
    ceiling is the cell's only limit."""
    if (
        seconds is None
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def expire(signum, frame):
        raise SweepTimeoutError(message)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class SweepWorker:
    """Agent loop of one worker process: lease, compute, stream back.

    Connects to a :class:`SweepBroker`, then repeats
    ``ready -> task -> result`` until the broker reports the sweep done
    (or ``max_tasks`` cells were computed). While a cell runs, a
    background thread heartbeats the held lease so the broker can tell
    "slow" from "dead", and a timer on the main thread enforces the
    per-cell timeout. Cells execute through the exact code path the
    serial executor uses (including the worker's own
    ``REPRO_FAULT_PLAN``), so results are bit-identical by construction.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_BROKER_PORT,
        name: Optional[str] = None,
        timeout_s: float = 60.0,
        connect_timeout_s: float = 30.0,
        max_tasks: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.timeout_s = timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.max_tasks = max_tasks
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._heartbeat_s = 5.0
        self.summary = WorkerSummary()

    # -- plumbing -------------------------------------------------------

    def _send(self, message: Dict[str, object]) -> None:
        assert self._sock is not None
        with self._send_lock:
            send_frame(self._sock, message)

    def _recv(self) -> Dict[str, object]:
        """One broker reply; raises WorkerError on silence or close."""
        assert self._sock is not None
        self._sock.settimeout(self.timeout_s)
        try:
            msg = recv_frame(self._sock, strict=True)
        except socket.timeout:
            raise WorkerError(
                f"broker sent no reply within {self.timeout_s}s"
            ) from None
        except ProtocolError as exc:
            raise WorkerError(f"protocol violation from broker: {exc}") from None
        except ConnectionError as exc:
            raise WorkerError(f"broker connection lost: {exc}") from None
        if msg is None:
            raise WorkerError("broker closed the connection")
        if msg.get("type") == MSG_ERROR:
            raise WorkerError(f"broker error: {msg.get('error')}")
        return msg

    def _connect(self) -> None:
        deadline = time.monotonic() + self.connect_timeout_s
        attempt = 0
        while True:
            attempt += 1
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
                return
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise WorkerError(
                        f"no broker on {self.host}:{self.port} after "
                        f"{self.connect_timeout_s:.0f}s: {exc}"
                    ) from None
                time.sleep(min(0.2 * attempt, 1.0))

    # -- the agent loop -------------------------------------------------

    def run(self) -> WorkerSummary:
        """Work the sweep to completion; returns the session summary."""
        if self._sock is None:  # a forked worker starts connected
            self._connect()
        log = get_logger("worker")
        try:
            self._send({
                "type": MSG_HELLO,
                "protocol": BROKER_PROTOCOL_VERSION,
                "worker": self.name,
            })
            hello = self._recv()
            if hello.get("type") != MSG_HELLO_OK:
                raise WorkerError(f"unexpected hello reply: {hello!r}")
            self._heartbeat_s = float(hello.get("heartbeat_s", 5.0))  # type: ignore[arg-type]
            log.info(
                f"connected to broker {self.host}:{self.port} "
                f"({hello.get('n_tasks')} task(s) in the sweep)"
            )
            while True:
                self._send({"type": MSG_READY})
                msg = self._recv()
                mtype = msg.get("type")
                if mtype == MSG_DONE:
                    return self.summary
                if mtype == MSG_IDLE:
                    time.sleep(float(msg.get("retry_after_s", 0.5)))  # type: ignore[arg-type]
                    continue
                if mtype != MSG_TASK:
                    raise WorkerError(f"unexpected reply to ready: {msg!r}")
                self._run_cell(msg, log)
                if (
                    self.max_tasks is not None
                    and self.summary.completed >= self.max_tasks
                ):
                    self._send({"type": MSG_GOODBYE})
                    return self.summary
        finally:
            if self._sock is not None:
                with contextlib.suppress(OSError):
                    self._sock.close()
                self._sock = None

    def _run_cell(self, msg: Dict[str, object], log) -> None:
        try:
            index = int(msg["index"])  # type: ignore[arg-type]
            attempt = int(msg["attempt"])  # type: ignore[arg-type]
            expected_key = str(msg["key"])
            wire_task = msg["task"]
            timeout = msg.get("timeout_s")
            timeout_s = None if timeout is None else float(timeout)  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkerError(f"malformed task frame: {exc}") from None
        # Refuse to compute a cell whose identity does not match what the
        # broker asked for (version skew, or a task the wire cannot carry).
        try:
            task = sweep_task_from_wire(wire_task)  # type: ignore[arg-type]
        except ProtocolError as exc:
            self._fail(index, attempt, TASK_KEY_MISMATCH, f"cannot rebuild task: {exc}")
            return
        if task.key() != expected_key:
            self._fail(
                index, attempt, TASK_KEY_MISMATCH,
                f"rebuilt task key {task.key()[:12]}... does not match "
                f"broker key {expected_key[:12]}... (mismatched repro versions?)",
            )
            return
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(index, stop),
            name="sweep-worker-heartbeat", daemon=True,
        )
        beat.start()
        log.info(f"leased {task.label} (attempt {attempt})")
        error: Optional[Exception] = None
        try:
            with _cell_timeout(
                timeout_s,
                f"sweep cell {task.label} exceeded {timeout_s}s (attempt {attempt})",
            ):
                payload, elapsed = _run_task_timed(task, attempt)
            try:
                blob = run_result_to_wire(payload)
            except ValueError as exc:
                raise CorruptResultError(
                    f"unencodable result for {task.label}: {exc}"
                ) from None
        except Exception as exc:  # noqa: BLE001 - every failure crosses the wire
            error = exc
        finally:
            stop.set()
            beat.join()
        if error is not None:
            self._fail(index, attempt, type(error).__name__, str(error))
            log.warning(f"{task.label} failed: {type(error).__name__}: {error}")
            return
        self._send({
            "type": MSG_RESULT,
            "index": index,
            "attempt": attempt,
            "key": expected_key,
            "wall_s": elapsed,
            "result": blob,
        })
        if self._await_ack():
            self.summary.completed += 1
            log.info(f"{task.label} done in {elapsed:.2f}s")
        else:
            self.summary.rejected += 1
            log.info(f"{task.label} result discarded by broker (late?)")

    def _fail(self, index: int, attempt: int, error_type: str, error: str) -> None:
        self._send({
            "type": MSG_FAIL, "index": index, "attempt": attempt,
            "error_type": error_type, "error": error,
        })
        self._await_ack()
        self.summary.failed += 1

    def _await_ack(self) -> bool:
        msg = self._recv()
        if msg.get("type") != MSG_ACK:
            raise WorkerError(f"expected ack, got {msg!r}")
        return bool(msg.get("accepted"))

    def _heartbeat_loop(self, index: int, stop: threading.Event) -> None:
        while not stop.wait(self._heartbeat_s):
            try:
                self._send({"type": MSG_HEARTBEAT, "index": index})
            except OSError:
                return  # broker gone; the main loop will notice


def _local_worker(
    sock: socket.socket, parents: Sequence[Optional[socket.socket]]
) -> None:
    """Body of a worker process forked by :meth:`SweepBroker.serve`,
    joined to the broker by ``sock``, its end of a socket pair."""
    for other in parents:  # this process keeps only its own end
        if other is not None:
            other.close()
    # Ctrl-C reaches the whole process group; the parent handles it and
    # reaps its workers on the way out.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker = SweepWorker()
    worker._sock = sock
    try:
        worker.run()
    except WorkerError as exc:
        _log.warning(f"local sweep worker stopped: {exc}")


__all__ = [
    "BROKER_PROTOCOL_VERSION",
    "DEFAULT_BROKER_PORT",
    "LeaseExpired",
    "RemoteCellError",
    "SweepBroker",
    "SweepWorker",
    "TASK_KEY_MISMATCH",
    "WorkerError",
    "WorkerSummary",
    "error_from_wire",
    "objective_from_wire",
    "sweep_task_from_wire",
    "sweep_task_to_wire",
]
