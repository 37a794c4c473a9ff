"""The sweep broker: one grid, served to the worker processes it forks.

This is the sweep runtime's one parallel path.
:class:`~repro.runtime.executor.SweepExecutor` with ``max_workers=N``
serves its pending cells through a :class:`SweepBroker`, which forks N
:class:`SweepWorker` processes, each joined to it by its own socket
pair. A sweep opens no port: only the processes it forked can lease a
cell or hand in a result. The broker guarantees:

* **Bit-identical results.** A worker inherits the task list and the
  content keys at fork, executes the exact same
  :func:`~repro.runtime.executor.run_task` path as a serial run and
  ships the :class:`~repro.dvfs.simulation.RunResult` back in its exact
  JSON form (:func:`~repro.telemetry.schema.run_result_to_wire`, the
  form the result cache stores). The broker decodes it with type checks
  and nothing else: a payload that fails them, or names another cell's
  key, is a corrupt result, never code the broker runs.
* **Exactly-once cells.** Every cell is leased to at most one worker at
  a time; a result is accepted only from the current leaseholder at the
  current attempt: a late result from a reclaimed lease is
  acknowledged as not accepted and discarded, so each cell's result is
  recorded once.
* **Fault tolerance under the executor's RetryPolicy.** A worker times
  its own cell (``task_timeout_s`` rides in the task frame), reports an
  overrun as an ordinary ``SweepTimeoutError`` failure and takes the
  next cell. Workers heartbeat their leases; a dead worker (connection
  drops) or a hung one (lease deadline passes, or the hard ceiling of
  ``task_timeout_s + lease_s`` is hit while heartbeats keep arriving)
  has its cell *reclaimed* (counted in the sweep's ``reclaims``). Every
  failed attempt is charged by the executor, as a serial run's is,
  against ``max_attempts`` and gated by the jitterless backoff;
  exhaustion follows ``on_exhausted``. A retried cell's final attempt
  runs in-process, on the thread that called :meth:`SweepBroker.serve`,
  and so does every pending cell once no worker is left.

Wire protocol
-------------
The same 4-byte big-endian length-prefixed JSON frames as the decision
service (:mod:`repro.runtime.wire`), over one socket pair per worker.
A worker holds the task list, the keys and its heartbeat interval from
the fork, so frames name a cell by its index. Worker to broker::

    ready      {}                          lease the next runnable cell
    heartbeat  {index}                     renew the held lease (no reply)
    result     {index, attempt, key, wall_s, result}
    fail       {index, attempt, error_type, error}

Broker to worker: ``task {index, attempt, timeout_s}``, ``idle``
(nothing runnable right now), ``done`` (sweep complete),
``ack {accepted}``, ``error {error}``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Set

from repro.obs.log import get_logger
from repro.runtime.executor import (
    FailedCell,
    LeaseExpired,
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
from repro.telemetry.schema import run_result_from_wire, run_result_to_wire

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

    from repro.runtime.executor import SweepExecutor, SweepTask

_log = get_logger("distributed")

#: Seconds between the broker's checks for expired leases and ended
#: sweeps, and between a handler's polls of its connection.
POLL_S = 0.2
#: How long a worker's ``ready`` may wait for a cell to come due before
#: the broker answers ``idle``.
IDLE_RETRY_S = 0.5

# Worker -> broker message types.
MSG_READY = "ready"
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_FAIL = "fail"

# Broker -> worker message types.
MSG_TASK = "task"
MSG_IDLE = "idle"
MSG_DONE = "done"
MSG_ACK = "ack"
MSG_ERROR = "error"


class RemoteCellError(RuntimeError):
    """A worker-side failure whose type has no local reconstruction."""

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


class WorkerError(RuntimeError):
    """The worker agent loop cannot continue (broker gone, protocol
    violation, malformed task frame...)."""


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
    """Serves one sweep's task grid to the worker processes it forks.

    :class:`~repro.runtime.executor.SweepExecutor` serves every parallel
    sweep through one: :meth:`serve` forks the workers, each on its own
    socket pair, and blocks until every pending cell of ``tasks`` has
    been computed (or exhausted its retry budget), filling ``results``
    in place. ``keys[i]`` is ``tasks[i].key()``. The broker owns no
    policy of its own - retries, caching and instrumentation all flow
    through the executor it serves.
    """

    def __init__(
        self,
        executor: "SweepExecutor",
        tasks: Sequence["SweepTask"],
        keys: Sequence[str],
        pending: Sequence[int],
        results: List,
        lease_s: float = 15.0,
    ) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.lease_s = lease_s
        #: Seconds between a worker's heartbeats, handed over at fork.
        self.heartbeat_s = min(lease_s / 3.0, 5.0)
        self._executor = executor
        self._tasks = tasks
        self._keys = keys
        self._results = results
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
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

    def serve(self, workers: int) -> None:
        """Fork ``workers`` worker processes and serve them the pending
        cells. The workers are forked before any broker thread starts,
        and terminated and joined before this returns or raises."""
        procs: List["BaseProcess"] = []
        try:
            self._fork_workers(workers, procs)
            for thread in self._handler_threads:  # only after the last fork
                thread.start()
            self._serve_loop()
        finally:
            with self._cond:
                self._finished = True
                self._cond.notify_all()  # idle handlers answer `done`
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.join()
            for thread in self._handler_threads:
                if thread.ident is not None:  # an interrupted fork leaves some unstarted
                    thread.join(timeout=5.0)
            with self._lock:
                conns = list(self._conns)
            for conn in conns:
                with contextlib.suppress(OSError):
                    conn.close()
        if self._fatal is not None:
            raise self._fatal

    def _fork_workers(self, n: int, into: List["BaseProcess"]) -> None:
        """Start ``n`` workers into ``into``, each joined to this broker
        by its own socket pair, and set up (but do not start) a handler
        thread per pair."""
        for k in range(n):
            mine, theirs = socket.socketpair()
            self._conns.append(mine)
            try:
                proc = self._start_worker(k, theirs)
            except OSError as exc:  # e.g. a process limit
                self._conns.remove(mine)
                mine.close()
                self._executor.progress.note(f"cannot fork sweep workers: {exc!r}")
                return
            into.append(proc)
            thread = threading.Thread(
                target=self._handle, args=(mine, f"local:{proc.pid}"),
                name=f"sweep-broker-local:{proc.pid}", daemon=True,
            )
            self._handler_threads.append(thread)

    def _start_worker(self, k: int, sock: socket.socket) -> "BaseProcess":
        """Fork worker ``k`` on ``sock``, its end of a socket pair.
        Forked, not spawned: it inherits the task list and keys, workloads
        registered at run time, ``REPRO_FAULT_PLAN`` and callables
        patched in place, so it computes what a serial run here would."""
        proc = multiprocessing.get_context("fork").Process(
            target=_local_worker,
            args=(sock, self._conns, self._tasks, self._keys, self.heartbeat_s),
            name=f"sweep-worker-{k}", daemon=True,
        )
        try:
            proc.start()
        finally:
            sock.close()
        return proc

    def _serve_loop(self) -> None:
        """Drive the sweep to completion on the calling thread: run
        in-process cells as they come due and reclaim expired leases.
        The pending cells run in-process once no worker is connected (a
        forked worker is connected from birth until it exits)."""
        with self._cond:
            while self._fatal is None and len(self._done) < len(self._attempts):
                i = self._pop_due(self._local)
                if i is not None:
                    self._run_local_locked(i)
                    continue
                if self._pending and not self._conns:
                    self._executor.progress.note(
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
    # Per-connection handler threads

    def _handle(self, conn: socket.socket, worker: str) -> None:
        receiver = FrameReceiver(conn, strict=True)
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
        raise ProtocolError(f"unknown message type {mtype!r}")

    # ------------------------------------------------------------------
    # Grid state transitions (all under the lock)

    def _note(self, message: str) -> None:
        """A sweep note; a log line once the sweep ended (workers reaped)."""
        with self._lock:
            if not self._finished:
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
                    self._finished
                    or self._fatal is not None
                    or len(self._done) >= len(self._attempts)
                ):
                    return {"type": MSG_DONE}
                i = self._pop_due(self._pending)
                if i is not None:
                    return self._grant_locked(i, worker)
                if time.monotonic() >= deadline:
                    return {"type": MSG_IDLE}
                self._wait_locked(self._pending, deadline)

    def _grant_locked(self, i: int, worker: str) -> Dict[str, object]:
        """Lease cell ``i`` to ``worker``; returns its ``task`` frame."""
        timeout_s = self._executor.task_timeout_s
        self._attempts[i] += 1
        attempt = self._attempts[i]
        hard = None
        if timeout_s is not None:
            hard = time.monotonic() + timeout_s + self.lease_s
        lease = _Lease(
            index=i, worker=worker, attempt=attempt,
            deadline=0.0, hard_deadline=hard,
        )
        lease.renew(self.lease_s)
        self._leases[i] = lease
        return {"type": MSG_TASK, "index": i, "attempt": attempt, "timeout_s": timeout_s}

    def _renew(self, index: object, worker: str) -> None:
        with self._lock:
            try:
                lease = self._leases.get(int(index))  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return
            if lease is not None and lease.worker == worker:
                lease.renew(self.lease_s)

    def _current_lease_locked(self, worker: str, i: int, attempt: int) -> bool:
        """Whether ``worker`` holds cell ``i``'s lease at ``attempt`` (a
        report on anything else is late: its lease was reclaimed)."""
        lease = self._leases.get(i)
        return (
            not self._finished
            and i not in self._done
            and lease is not None
            and lease.worker == worker
            and lease.attempt == attempt
        )

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
            if not self._current_lease_locked(worker, i, attempt):
                return False
            task = self._tasks[i]
            self._leases.pop(i, None)
            try:
                result = self._decode_result(task, self._keys[i], msg)
            except CorruptResultError as exc:
                self._fail_or_requeue_locked(i, exc)
                return False
            self._results[i] = result
            self._executor._finish_cell(
                task, self._keys[i], result, wall_s, SOURCE_REMOTE, attempt
            )
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
            if not self._current_lease_locked(worker, i, attempt):
                return  # late failure report for a reclaimed lease
            self._leases.pop(i, None)
            self._fail_or_requeue_locked(i, error_from_wire(error_type, error))

    def _queue_locked(self, i: int, delay: float) -> None:
        """Make cell ``i`` runnable after ``delay`` seconds: in-process
        when it is pinned there or its next attempt is its last, on a
        worker otherwise."""
        self._earliest[i] = time.monotonic() + delay
        if i in self._pinned or self._attempts[i] + 1 >= self._executor.retry.max_attempts:
            self._local.add(i)
        else:
            self._pending.add(i)
        self._cond.notify_all()

    def _fail_or_requeue_locked(self, i: int, exc: BaseException) -> None:
        """Charge a failed attempt through the executor, and queue the
        cell again or settle it; caller holds the lock."""
        try:
            outcome = self._executor._charge_failure(
                self._tasks[i], self._keys[i], self._attempts[i], exc
            )
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
        task = self._tasks[i]
        self._executor.progress.record_reclaim(task.label, worker, lease.attempt, cause)
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
    """Agent loop of one forked worker process: lease, compute, stream back.

    Holds ``sock``, its end of the socket pair to the broker that forked
    it, and the sweep's ``tasks`` and their ``keys``, inherited at fork.
    Repeats ``ready -> task -> result`` until the broker reports the
    sweep done. While a cell runs, a background thread heartbeats the
    held lease every ``heartbeat_s`` so the broker can tell "slow" from
    "dead", and a timer on the main thread enforces the per-cell
    timeout. Cells execute through the exact code path the serial
    executor uses (including the worker's own ``REPRO_FAULT_PLAN``), so
    results are bit-identical by construction. ``timeout_s`` bounds the
    wait for each broker reply.
    """

    def __init__(
        self,
        sock: socket.socket,
        tasks: Sequence["SweepTask"],
        keys: Sequence[str],
        heartbeat_s: float = 5.0,
        timeout_s: float = 60.0,
    ) -> None:
        self._sock = sock
        self.tasks = tasks
        self.keys = keys
        self.heartbeat_s = heartbeat_s
        self.timeout_s = timeout_s
        self._send_lock = threading.Lock()

    # -- plumbing -------------------------------------------------------

    def _send(self, message: Dict[str, object]) -> None:
        with self._send_lock:
            send_frame(self._sock, message)

    def _recv(self) -> Dict[str, object]:
        """One broker reply; raises WorkerError on silence or close."""
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

    # -- the agent loop -------------------------------------------------

    def run(self) -> None:
        """Work the sweep until the broker reports it done."""
        log = get_logger("worker")
        try:
            while True:
                try:
                    self._send({"type": MSG_READY})
                except OSError:
                    pass  # a broker that ended the sweep said `done` unasked and hung up
                msg = self._recv()
                mtype = msg.get("type")
                if mtype == MSG_DONE:
                    return
                if mtype == MSG_IDLE:
                    continue
                if mtype != MSG_TASK:
                    raise WorkerError(f"unexpected reply to ready: {msg!r}")
                self._run_cell(msg, log)
        finally:
            with contextlib.suppress(OSError):
                self._sock.close()

    def _run_cell(self, msg: Dict[str, object], log) -> None:
        try:
            index = int(msg["index"])  # type: ignore[arg-type]
            attempt = int(msg["attempt"])  # type: ignore[arg-type]
            timeout = msg.get("timeout_s")
            timeout_s = None if timeout is None else float(timeout)  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkerError(f"malformed task frame: {exc}") from None
        if not 0 <= index < len(self.tasks):
            raise WorkerError(f"malformed task frame: no cell {index}")
        task = self.tasks[index]
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
            self._send({
                "type": MSG_FAIL, "index": index, "attempt": attempt,
                "error_type": type(error).__name__, "error": str(error),
            })
            self._await_ack()
            log.warning(f"{task.label} failed: {type(error).__name__}: {error}")
            return
        self._send({
            "type": MSG_RESULT,
            "index": index,
            "attempt": attempt,
            "key": self.keys[index],
            "wall_s": elapsed,
            "result": blob,
        })
        if self._await_ack():
            log.info(f"{task.label} done in {elapsed:.2f}s")
        else:
            log.info(f"{task.label} result discarded by broker (late?)")

    def _await_ack(self) -> bool:
        msg = self._recv()
        if msg.get("type") != MSG_ACK:
            raise WorkerError(f"expected ack, got {msg!r}")
        return bool(msg.get("accepted"))

    def _heartbeat_loop(self, index: int, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_s):
            try:
                self._send({"type": MSG_HEARTBEAT, "index": index})
            except OSError:
                return  # broker gone; the main loop will notice


def _local_worker(
    sock: socket.socket,
    parents: Sequence[socket.socket],
    tasks: Sequence["SweepTask"],
    keys: Sequence[str],
    heartbeat_s: float,
) -> None:
    """Body of a worker process forked by :meth:`SweepBroker.serve`,
    joined to the broker by ``sock``, its end of a socket pair."""
    for other in parents:  # this process keeps only its own end
        other.close()
    # Ctrl-C reaches the whole process group; the parent handles it and
    # reaps its workers on the way out.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        SweepWorker(sock, tasks, keys, heartbeat_s).run()
    except (WorkerError, OSError) as exc:
        _log.warning(f"local sweep worker stopped: {exc}")


__all__ = [
    "LeaseExpired",
    "RemoteCellError",
    "SweepBroker",
    "SweepWorker",
    "WorkerError",
    "error_from_wire",
]
