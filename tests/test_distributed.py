"""Sweep broker and workers: protocol, leases, exactly-once.

End-to-end tests fork real workers through ``SweepExecutor``, or run
real :class:`SweepWorker` loops in threads on socket pairs; protocol-level
tests drive the broker from a hand-rolled "fake worker" on its end of a
socket pair, so lease expiry, late results, and adversarial frames can
be sequenced deterministically.
"""

import base64
import dataclasses
import functools
import json
import math
import pickle
import re
import socket
import struct
import threading
import time
import types

import pytest

from repro.config import small_config
from repro.runtime.cache import ResultCache, canonicalize
from repro.runtime.distributed import (
    LeaseExpired,
    RemoteCellError,
    SweepBroker,
    SweepWorker,
    WorkerError,
    error_from_wire,
)
from repro.runtime.executor import (
    ON_EXHAUSTED_RECORD,
    FailedCell,
    RetryPolicy,
    SweepExecutor,
    SweepTask,
    SweepTimeoutError,
    _run_task_timed,
)
from repro.runtime.faults import (
    CorruptResultError,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
)
from repro.runtime.wire import recv_frame, send_frame
from repro.telemetry.schema import run_result_from_wire, run_result_to_wire

CONFIG = small_config()


def task(workload="dgemm", design="CRISP", **kw):
    kw.setdefault("scale", 0.1)
    kw.setdefault("max_epochs", 20)
    return SweepTask(workload=workload, design=design, config=CONFIG, **kw)


@functools.lru_cache(maxsize=None)
def computed(workload, design):
    """One real result per cell, computed once for the whole module."""
    result, _ = _run_task_timed(task(workload, design))
    return result


def result_frames(t, index, attempt):
    """A valid ``result`` frame for a (real, precomputed) cell result."""
    return {
        "type": "result", "index": index, "attempt": attempt,
        "key": t.key(), "wall_s": 0.01,
        "result": run_result_to_wire(computed(t.workload, t.design)),
    }


class PeerBroker(SweepBroker):
    """A broker whose workers are socket pairs the test drives: each
    fork is replaced by handing the worker's end of its pair to the
    test, which speaks the protocol on it itself or runs a real
    :class:`SweepWorker` loop on it in a thread."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.peers = []

    def _start_worker(self, k, sock):
        sock.settimeout(10.0)
        self.peers.append(sock)
        # Stands in for the forked process; the test closes the socket.
        return types.SimpleNamespace(pid=f"peer{k}", terminate=lambda: None, join=lambda: None)


class BrokerHarness:
    """A broker serving ``tasks`` to ``peers`` socket pairs on a
    background thread."""

    def __init__(self, tasks, peers=2, **executor_kw):
        self.tasks = tasks
        self.keys = [t.key() for t in tasks]
        self.results = [None] * len(tasks)
        self.ex = SweepExecutor(**executor_kw)
        self.broker = PeerBroker(
            self.ex, tasks, self.keys, range(len(tasks)), self.results, lease_s=0.6
        )
        self.n_peers = peers
        self.error = None
        self._free = []
        self._workers = []
        self._thread = threading.Thread(target=self._run, name="harness-sweep")

    def _run(self):
        try:
            self.broker.serve(workers=self.n_peers)
        except BaseException as exc:  # noqa: BLE001 - re-raised in join()
            self.error = exc

    def __enter__(self):
        self._thread.start()
        deadline = time.monotonic() + 10
        while len(self.broker.peers) < self.n_peers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(self.broker.peers) == self.n_peers, "broker never forked"
        self._free = list(self.broker.peers)
        return self

    def next_peer(self):
        """The next unused peer, for the test to speak the protocol on."""
        return self._free.pop(0)

    def run_worker(self):
        """Run a real worker loop on the next unused peer, on a thread."""
        worker = SweepWorker(
            self.next_peer(), self.tasks, self.keys, self.broker.heartbeat_s, timeout_s=20.0
        )
        thread = threading.Thread(target=worker.run, name="harness-worker")
        thread.start()
        self._workers.append(thread)

    def join(self, timeout=60.0):
        """The sweep's results, once it and every worker loop ended."""
        for thread in [self._thread, *self._workers]:
            thread.join(timeout=timeout)
            assert not thread.is_alive(), f"{thread.name} hung"
        if self.error is not None:
            raise self.error
        return self.results

    def __exit__(self, *exc):
        self._thread.join(timeout=60.0)
        for sock in self.broker.peers:
            sock.close()
        return False


def retry_kinds(progress):
    """The error type of each retry the sweep recorded, in order."""
    return [
        re.search(r"failed \((\w+)\)", e).group(1)
        for e in progress.events if e.startswith("retry ")
    ]


def lease(sock):
    """Send ready until the broker grants a task (skipping idle waits)."""
    for _ in range(200):
        send_frame(sock, {"type": "ready"})
        reply = recv_frame(sock, strict=True)
        if reply["type"] == "task":
            return reply
        assert reply["type"] == "idle", reply
    raise AssertionError("broker never granted a task")


# ----------------------------------------------------------------------
# Wire codecs


class TestResultCodec:
    def test_round_trip_is_exact(self):
        result = computed("dgemm", "CRISP")
        clone = run_result_from_wire(run_result_to_wire(result))
        assert clone == result
        assert canonicalize(clone) == canonicalize(result)

    def test_garbage_blob_is_corrupt(self):
        t = task()
        with pytest.raises(CorruptResultError, match="undecodable"):
            SweepBroker._decode_result(t, t.key(), {"key": t.key(), "result": "!!!not-json!!!"})

    def test_result_frame_carries_one_payload(self):
        frame = result_frames(task(), 0, 1)
        assert set(frame) == {"type", "index", "attempt", "key", "wall_s", "result"}
        assert isinstance(frame["result"], str)

    def test_error_reconstruction(self):
        assert isinstance(
            error_from_wire("InjectedFaultError", "x"), InjectedFaultError
        )
        assert isinstance(
            error_from_wire("CorruptResultError", "x"), CorruptResultError
        )
        assert isinstance(
            error_from_wire("SweepTimeoutError", "x"), SweepTimeoutError
        )
        for builtin in (ValueError, KeyError, TypeError, RuntimeError):
            exc = error_from_wire(builtin.__name__, "x")
            assert type(exc) is builtin
        exc = error_from_wire("SomethingNovel", "boom")
        assert isinstance(exc, RemoteCellError)
        assert exc.remote_type == "SomethingNovel"

    def test_task_frame_names_the_cell_by_index(self):
        """A worker inherits the tasks and keys at fork, so a task frame
        carries the cell index, the attempt and the timeout, nothing
        else."""
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks, peers=1, task_timeout_s=30.0) as h:
            sock = h.next_peer()
            grant = lease(sock)
            send_frame(sock, result_frames(tasks[0], grant["index"], grant["attempt"]))
            assert recv_frame(sock, strict=True)["accepted"] is True
            h.join()
        assert grant == {"type": "task", "index": 0, "attempt": 1, "timeout_s": 30.0}


# ----------------------------------------------------------------------
# Executor surface


class TestExecutorSurface:
    def test_local_backend_unchanged(self):
        r = SweepExecutor().run_one(task())
        assert r == computed("dgemm", "CRISP")


# ----------------------------------------------------------------------
# End-to-end: real workers


class TestEndToEnd:
    def test_two_workers_bit_identical_and_ordered(self):
        tasks = [task(w, d) for w in ("dgemm", "hacc")
                 for d in ("CRISP", "PCSTALL")]
        serial = SweepExecutor().run(tasks)
        with BrokerHarness(tasks) as h:
            h.run_worker()
            h.run_worker()
            results = h.join()
        assert results == serial
        assert canonicalize(results) == canonicalize(serial)
        # Workers computed every cell, and nothing was double-kept.
        assert sorted(c.label for c in h.ex.progress.cells) == sorted(t.label for t in tasks)
        assert [c.source for c in h.ex.progress.cells] == ["remote"] * len(tasks)

    def test_remote_sweep_reuses_cache(self, tmp_path):
        tasks = [task("dgemm", "CRISP"), task("dgemm", "PCSTALL")]
        cache = ResultCache(tmp_path / "cache")
        ex = SweepExecutor(max_workers=2, cache=cache)
        first = ex.run(tasks)
        assert [c.source for c in ex.progress.cells] == ["remote", "remote"]
        # Second run: everything cached, no worker forked.
        ex2 = SweepExecutor(max_workers=2, cache=cache)
        second = ex2.run(tasks)
        assert second == first
        assert ex2.progress.cache_hits == len(tasks)


# ----------------------------------------------------------------------
# Leases: death, expiry, heartbeats, exactly-once


class TestLeases:
    def test_dead_worker_lease_reclaimed_and_reassigned(self):
        tasks = [task("dgemm", "CRISP"), task("dgemm", "PCSTALL")]
        with BrokerHarness(tasks) as h:
            dead = h.next_peer()
            grant = lease(dead)
            dead.close()  # dies holding the lease; broker must reclaim
            h.run_worker()
            results = h.join()
        assert all(r is not None for r in results)
        assert h.ex.progress.reclaims >= 1
        label = tasks[int(grant["index"])].label
        reclaims = [e for e in h.ex.progress.events if e.startswith("reclaimed ")]
        assert reclaims[0].startswith(f"reclaimed {label} from ")
        assert "(attempt 1: worker disconnected)" in reclaims[0]
        assert h.ex.progress.retries >= 1
        # The reclaimed cell's second attempt is charged to the budget.
        record = next(
            c for c in h.ex.progress.cells if c.label == label
        )
        assert record.attempts == 2

    def test_expired_lease_reclaimed_without_disconnect(self):
        """A hung worker (connected, silent, no heartbeats) loses its
        lease at the deadline; its late result is then refused."""
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks, peers=1) as h:
            hung = h.next_peer()
            grant = lease(hung)
            # No heartbeats: lease (0.6s) expires, reaper reclaims.
            deadline = time.monotonic() + 10
            while h.ex.progress.reclaims == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert h.ex.progress.reclaims == 1
            # The stale attempt-1 result must be refused (exactly-once)...
            send_frame(hung, result_frames(tasks[0], grant["index"],
                                           grant["attempt"]))
            ack = recv_frame(hung, strict=True)
            assert ack == {"type": "ack", "accepted": False}
            # ...and the same connection may lease the cell again.
            regrant = lease(hung)
            assert regrant["index"] == grant["index"]
            assert regrant["attempt"] == grant["attempt"] + 1
            send_frame(hung, result_frames(tasks[0], regrant["index"],
                                           regrant["attempt"]))
            ack = recv_frame(hung, strict=True)
            assert ack == {"type": "ack", "accepted": True}
            results = h.join()
        assert results[0] == computed("dgemm", "CRISP")
        assert h.ex.progress.reclaims == 1

    def test_heartbeats_keep_a_slow_lease_alive(self):
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks, peers=1) as h:
            slow = h.next_peer()
            grant = lease(slow)
            # Hold the lease well past lease_s (0.6s) with heartbeats.
            for _ in range(8):
                time.sleep(0.2)
                send_frame(slow, {"type": "heartbeat",
                                  "index": grant["index"]})
            assert h.ex.progress.reclaims == 0
            send_frame(slow, result_frames(tasks[0], grant["index"],
                                           grant["attempt"]))
            assert recv_frame(slow, strict=True)["accepted"] is True
            h.join()
        assert h.ex.progress.reclaims == 0

    def test_task_timeout_caps_a_heartbeating_hang(self):
        """With task_timeout_s set, heartbeats cannot renew forever: the
        hard deadline reclaims a wedged-but-alive worker's lease."""
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks, task_timeout_s=0.5) as h:
            wedged = h.next_peer()
            grant = lease(wedged)
            stop = threading.Event()

            def beat():
                while not stop.wait(0.1):
                    try:
                        send_frame(wedged, {"type": "heartbeat",
                                            "index": grant["index"]})
                    except OSError:
                        return

            beater = threading.Thread(target=beat)
            beater.start()
            deadline = time.monotonic() + 15
            while h.ex.progress.reclaims == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert h.ex.progress.reclaims == 1, \
                "hard lease cap never fired despite heartbeats"
            h.run_worker()
            h.join()
            stop.set()
            beater.join(timeout=10)
            assert not beater.is_alive()


# ----------------------------------------------------------------------
# Failure accounting


class TestFailures:
    def test_remote_failures_exhaust_into_failed_cell(self):
        """Attempt 1 fails on a worker; the final attempt runs in-process,
        where a raise plan fails it too, exhausting the budget."""
        tasks = [task("dgemm", "CRISP")]
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                            on_exhausted=ON_EXHAUSTED_RECORD)
        plan = FaultPlan((FaultSpec("dgemm/CRISP", "raise", attempts=None),))
        with plan, BrokerHarness(tasks, peers=1, retry=retry) as h:
            sock = h.next_peer()
            grant = lease(sock)
            assert grant["attempt"] == 1
            send_frame(sock, {
                "type": "fail", "index": grant["index"],
                "attempt": grant["attempt"],
                "error_type": "InjectedFaultError", "error": "planned",
            })
            assert recv_frame(sock, strict=True)["type"] == "ack"
            results = h.join()
        cell = results[0]
        assert isinstance(cell, FailedCell)
        assert cell.attempts == 2
        assert "InjectedFaultError" in cell.error
        assert h.ex.progress.failures == 1
        assert any("final attempt 2" in e for e in h.ex.progress.events)

    def test_nonretryable_remote_failure_fails_fast(self):
        tasks = [task("dgemm", "CRISP")]
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                            on_exhausted=ON_EXHAUSTED_RECORD)
        with BrokerHarness(tasks, peers=1, retry=retry) as h:
            sock = h.next_peer()
            grant = lease(sock)
            send_frame(sock, {
                "type": "fail", "index": grant["index"],
                "attempt": grant["attempt"],
                "error_type": "ValueError",
                "error": "bad input",
            })
            assert recv_frame(sock, strict=True)["type"] == "ack"
            results = h.join()
        # One attempt only: ValueError is not retryable, and the broker
        # rebuilds it as the builtin type a serial run would raise.
        cell = results[0]
        assert isinstance(cell, FailedCell) and cell.attempts == 1
        assert cell.error == repr(ValueError("bad input"))

    def test_lease_expiry_is_implicitly_retryable(self):
        assert not RetryPolicy().is_retryable(LeaseExpired("x"))
        # ...by policy type it is not listed, but the executor charges
        # it as retryable explicitly - guarded by the reclaim tests above.
        assert LeaseExpired.__mro__[1] is RuntimeError

    def _ship_corrupt(self, corrupt):
        """Ship ``corrupt(valid result payload)`` as attempt 1, then the
        valid payload as attempt 2; returns the harness."""
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks, peers=1) as h:
            sock = h.next_peer()
            grant = lease(sock)
            frame = result_frames(tasks[0], grant["index"], grant["attempt"])
            frame["result"] = corrupt(frame["result"])
            send_frame(sock, frame)
            assert recv_frame(sock, strict=True)["accepted"] is False
            # Charged as CorruptResultError; re-lease and complete properly.
            regrant = lease(sock)
            assert regrant["attempt"] == 2
            send_frame(sock, result_frames(tasks[0], regrant["index"], 2))
            assert recv_frame(sock, strict=True)["accepted"] is True
            results = h.join()
        assert retry_kinds(h.ex.progress) == ["CorruptResultError"]
        assert results[0] == computed("dgemm", "CRISP")
        return h

    def test_wrongly_typed_field_charges_a_retry(self):
        def retype(blob):
            wire = json.loads(blob)
            wire["epochs"] = float(wire["epochs"])  # an int field as a float
            return json.dumps(wire)

        self._ship_corrupt(retype)

    def test_nan_literal_charges_a_retry(self):
        def nan(blob):
            wire = json.loads(blob)
            wire["delay_ns"] = float("nan")
            text = json.dumps(wire)  # writes the bare NaN literal
            assert "NaN" in text
            return text

        self._ship_corrupt(nan)

    def test_pickled_result_is_refused_unread(self, monkeypatch):
        """An old-style base64 pickle is a corrupt result, and nothing
        ever unpickles it."""
        def refuse(*args, **kwargs):
            raise AssertionError("pickle.loads called on a shipped result")

        blob = base64.b64encode(pickle.dumps(computed("dgemm", "CRISP"))).decode("ascii")
        monkeypatch.setattr(pickle, "loads", refuse)
        self._ship_corrupt(lambda _: blob)

    def test_worker_reports_an_unencodable_result(self, monkeypatch):
        """A result the codec refuses is a CorruptResultError failure, not
        a crashed worker; the final attempt in-process returns what a
        serial run does."""
        import repro.runtime.executor as executor_mod

        expected = computed("dgemm", "CRISP")  # before the patch: it is memoised
        real = executor_mod.run_task

        def nan_delay(t, **kw):
            return dataclasses.replace(real(t, **kw), delay_ns=math.nan)

        monkeypatch.setattr(executor_mod, "run_task", nan_delay)
        tasks = [task("dgemm", "CRISP")]
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.01)
        with BrokerHarness(tasks, peers=1, retry=retry) as h:
            h.run_worker()
            results = h.join()
        assert retry_kinds(h.ex.progress) == ["CorruptResultError"]
        (record,) = h.ex.progress.cells
        assert (record.source, record.attempts) == ("serial", 2)
        (result,) = results
        assert math.isnan(result.delay_ns)
        assert dataclasses.replace(result, delay_ns=0.0) == dataclasses.replace(
            expected, delay_ns=0.0
        )


# ----------------------------------------------------------------------
# Adversarial peers


class TestAdversarialPeers:
    def test_unknown_message_type_rejected(self):
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks) as h:
            sock = h.next_peer()
            send_frame(sock, {"type": "exfiltrate"})
            reply = recv_frame(sock, strict=True)
            assert reply["type"] == "error"
            sock.close()
            self._finish(h)

    def test_garbage_bytes_do_not_wedge_the_broker(self):
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks, peers=3) as h:
            # Oversized length prefix, then torn garbage, then vanish.
            sock = h.next_peer()
            sock.sendall(struct.pack(">I", 2**31) + b"\x00junk")
            sock.close()
            sock2 = h.next_peer()
            sock2.sendall(b"\x00\x00\x00\x10only-half")
            sock2.close()
            self._finish(h)

    @staticmethod
    def _finish(h):
        """The sweep must still complete via an honest worker."""
        h.run_worker()
        results = h.join()
        assert all(r is not None for r in results)
        assert h.ex.progress.reclaims == 0  # garbage held no leases


class TestWorkerAgainstHostileBroker:
    """The worker loop must turn broker misbehaviour into WorkerError."""

    def _serve(self, script):
        """One-shot fake broker on a socket pair: runs ``script(conn)``
        on its end; returns a worker on the other end and the thread."""
        conn, theirs = socket.socketpair()
        conn.settimeout(10.0)

        def run():
            try:
                script(conn)
            finally:
                conn.close()

        thread = threading.Thread(target=run)
        thread.start()
        t = task("dgemm", "CRISP")
        return SweepWorker(theirs, [t], [t.key()], timeout_s=5.0), thread

    def test_garbage_reply_is_worker_error(self):
        def script(conn):
            recv_frame(conn, strict=True)  # ready
            conn.sendall(struct.pack(">I", 2**31))  # oversized prefix

        worker, thread = self._serve(script)
        with pytest.raises(WorkerError, match="protocol violation"):
            worker.run()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_mid_frame_disconnect_is_worker_error(self):
        def script(conn):
            recv_frame(conn, strict=True)
            conn.sendall(b"\x00\x00\x01\x00partial")  # torn frame, close

        worker, thread = self._serve(script)
        with pytest.raises(WorkerError):
            worker.run()
        thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("index", [1, -1, None])
    def test_a_task_frame_naming_no_cell_is_refused_before_compute(self, index, monkeypatch):
        """A worker holds one task; a frame naming any other cell ends
        the loop before anything is computed."""
        import repro.runtime.executor as executor_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(executor_mod, "run_task", refuse)

        def script(conn):
            recv_frame(conn, strict=True)  # ready
            send_frame(conn, {"type": "task", "index": index, "attempt": 1,
                              "timeout_s": None})
            recv_frame(conn, strict=True)

        worker, thread = self._serve(script)
        with pytest.raises(WorkerError, match="malformed task frame"):
            worker.run()
        thread.join(timeout=10)
        assert not thread.is_alive()
