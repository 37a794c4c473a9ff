"""Sweep broker and workers: protocol, leases, exactly-once.

End-to-end tests run a real :class:`SweepBroker` (ephemeral port) with
real :class:`SweepWorker` loops in threads; protocol-level tests drive
the broker with a hand-rolled "fake worker" socket so lease expiry,
late results, and adversarial frames can be sequenced deterministically.
"""

import base64
import dataclasses
import functools
import json
import math
import os
import pathlib
import pickle
import re
import select
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.config import small_config
from repro.core.objectives import (
    EDnPObjective,
    PerformanceCapObjective,
    QoSDeadlineObjective,
    StaticObjective,
)
from repro.runtime.cache import ResultCache, canonicalize, describe_objective
from repro.runtime.distributed import (
    BROKER_PROTOCOL_VERSION,
    LeaseExpired,
    RemoteCellError,
    SweepBroker,
    SweepWorker,
    WorkerError,
    error_from_wire,
    objective_from_wire,
    sweep_task_from_wire,
    sweep_task_to_wire,
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
from repro.runtime.wire import ProtocolError, recv_frame, send_frame
from repro.telemetry.schema import run_result_from_wire, run_result_to_wire

from helpers import SRC

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


class BrokerHarness:
    """A broker serving ``tasks`` on a background thread."""

    def __init__(self, tasks, executor_kw=None, broker_kw=None):
        self.tasks = tasks
        self.broker = SweepBroker(port=0, lease_s=0.6, **(broker_kw or {}))
        self.ex = SweepExecutor(broker=self.broker, **(executor_kw or {}))
        self.results = None
        self.error = None
        self._thread = threading.Thread(target=self._run, name="harness-sweep")

    def _run(self):
        try:
            self.results = self.ex.run(self.tasks)
        except BaseException as exc:  # noqa: BLE001 - re-raised in join()
            self.error = exc

    def __enter__(self):
        self._thread.start()
        deadline = time.monotonic() + 10
        while self.broker.bound_port is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert self.broker.bound_port is not None, "broker never bound"
        return self

    def connect(self):
        sock = socket.create_connection(
            ("127.0.0.1", self.broker.bound_port), timeout=10.0
        )
        sock.settimeout(10.0)
        return sock

    def worker(self, **kw):
        kw.setdefault("timeout_s", 20.0)
        return SweepWorker(port=self.broker.bound_port, **kw)

    def join(self, timeout=60.0):
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "sweep hung"
        if self.error is not None:
            raise self.error
        return self.results

    def __exit__(self, *exc):
        self._thread.join(timeout=60.0)
        return False


def retry_kinds(progress):
    """The error type of each retry the sweep recorded, in order."""
    return [
        re.search(r"failed \((\w+)\)", e).group(1)
        for e in progress.events if e.startswith("retry ")
    ]


def handshake(sock, name="fake"):
    send_frame(sock, {
        "type": "hello", "protocol": BROKER_PROTOCOL_VERSION, "worker": name,
    })
    reply = recv_frame(sock, strict=True)
    assert reply["type"] == "hello_ok"
    return reply


def lease(sock):
    """Send ready until the broker grants a task (skipping idle waits)."""
    for _ in range(200):
        send_frame(sock, {"type": "ready"})
        reply = recv_frame(sock, strict=True)
        if reply["type"] == "task":
            return reply
        assert reply["type"] == "idle", reply
        time.sleep(float(reply["retry_after_s"]))
    raise AssertionError("broker never granted a task")


# ----------------------------------------------------------------------
# Wire codecs


class TestTaskCodec:
    @pytest.mark.parametrize("objective", [
        None,
        StaticObjective(1.4),
        EDnPObjective(2),
        EDnPObjective(1, price_scale=1.25),
        PerformanceCapObjective(0.05),
        QoSDeadlineObjective(1000.0),
    ])
    def test_round_trip_preserves_cache_key(self, objective):
        t = task(objective=objective, oracle_sample_freqs=4,
                 collect_accuracy=True)
        rebuilt = sweep_task_from_wire(sweep_task_to_wire(t))
        assert rebuilt.key() == t.key()
        assert rebuilt.label == t.label
        assert describe_objective(rebuilt.objective) == describe_objective(
            t.objective
        )

    def test_wire_form_is_json_clean(self):
        import json

        wire = sweep_task_to_wire(task(objective=EDnPObjective(2)))
        assert sweep_task_from_wire(json.loads(json.dumps(wire))).key() == \
            task(objective=EDnPObjective(2)).key()

    def test_malformed_task_is_typed(self):
        with pytest.raises(ProtocolError, match="malformed sweep task"):
            sweep_task_from_wire({"workload": "dgemm"})

    def test_task_with_a_zero_sync_quantum_is_typed(self):
        wire = sweep_task_to_wire(task())
        wire["config"]["gpu"]["sync_quantum_ns"] = 0.0
        with pytest.raises(ProtocolError, match="sync_quantum_ns"):
            sweep_task_from_wire(wire)

    def test_unknown_objective_is_typed(self):
        wire = sweep_task_to_wire(task())
        wire["objective"] = {"__class__": "EvilObjective"}
        with pytest.raises(ProtocolError, match="unknown objective"):
            sweep_task_from_wire(wire)

    def test_decoding_a_task_loads_no_service_modules(self):
        """A worker decodes tasks without importing the decision service."""
        code = (
            "import sys\n"
            "from repro.config import small_config\n"
            "from repro.runtime.distributed import sweep_task_from_wire, "
            "sweep_task_to_wire\n"
            "from repro.runtime.executor import SweepTask\n"
            "sweep_task_from_wire(sweep_task_to_wire("
            "SweepTask('dgemm', 'CRISP', small_config())))\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.service')]\n"
            "assert not loaded, loaded\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_objective_from_wire_matches_canonical_form(self):
        obj = QoSDeadlineObjective(800.0)
        rebuilt = objective_from_wire(describe_objective(obj))
        assert describe_objective(rebuilt) == describe_objective(obj)
        assert objective_from_wire(None) is None


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


# ----------------------------------------------------------------------
# Executor surface


class TestExecutorSurface:
    def test_local_backend_unchanged(self):
        r = SweepExecutor().run_one(task())
        assert r == computed("dgemm", "CRISP")

    def test_failed_bind_leaves_the_broker_reusable(self):
        """Regression: a port in use left the sweep claimed, so every
        later serve() raised "already serving" even once it was free."""
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen()
        port = blocker.getsockname()[1]
        broker = SweepBroker(port=port)
        ex = SweepExecutor(broker=broker)
        try:
            with pytest.raises(OSError):
                broker.serve(ex, [], [], [], [])
        finally:
            blocker.close()
        broker.serve(ex, [], [], [], [])  # an empty grid: bind, serve, return
        assert broker.bound_port == port
        # A task without a content key fails before the broker is claimed.
        obj = EDnPObjective(2)
        obj.hook = {1, 2}  # a set has no canonical form
        with pytest.raises(TypeError):
            ex.run([task(objective=obj)])
        broker.serve(ex, [], [], [], [])
        results = SweepExecutor(broker=broker, max_workers=2).run(
            [task("dgemm", "CRISP")]
        )
        assert results[0] == computed("dgemm", "CRISP")


# ----------------------------------------------------------------------
# End-to-end: real workers


class TestEndToEnd:
    def test_two_workers_bit_identical_and_ordered(self, tmp_path, broker_log):
        tasks = [task(w, d) for w in ("dgemm", "hacc")
                 for d in ("CRISP", "PCSTALL")]
        serial = SweepExecutor().run(tasks)
        with BrokerHarness(
            tasks, executor_kw=dict(cache=ResultCache(tmp_path / "cache")),
        ) as h:
            workers = [h.worker(name=f"w{i}") for i in range(2)]
            threads = [threading.Thread(target=w.run) for w in workers]
            for t in threads:
                t.start()
            results = h.join()
            for t in threads:
                t.join(timeout=30)
        assert results == serial
        assert canonicalize(results) == canonicalize(serial)
        # Both workers did real work and nothing was double-kept.
        assert sum(w.summary.completed for w in workers) == len(tasks)
        assert sorted(c.label for c in h.ex.progress.cells) == sorted(t.label for t in tasks)
        assert [c.source for c in h.ex.progress.cells] == ["remote"] * len(tasks)
        assert sum(" connected (" in m for m in broker_log) == 2

    def test_remote_sweep_reuses_cache(self, tmp_path):
        tasks = [task("dgemm", "CRISP"), task("dgemm", "PCSTALL")]
        cache = ResultCache(tmp_path / "cache")
        with BrokerHarness(tasks, executor_kw=dict(cache=cache)) as h:
            w = h.worker(name="w0")
            t = threading.Thread(target=w.run)
            t.start()
            first = h.join()
            t.join(timeout=30)
        # Second remote run: everything cached, no broker/worker needed.
        ex2 = SweepExecutor(broker=SweepBroker(port=0), cache=cache)
        second = ex2.run(tasks)
        assert second == first
        assert ex2.progress.cache_hits == len(tasks)

    def test_run_listen_prints_the_bound_port(self, tmp_path):
        """`repro run --listen HOST:0` prints the port it bound before it
        waits for workers, so a `repro worker` can be pointed at it."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("REPRO_FAULT_PLAN", None)
        run = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "dgemm", "--design", "CRISP",
             "--cus", "2", "--waves", "4", "--scale", "0.1", "--max-epochs", "20",
             "--no-cache", "--listen", "127.0.0.1:0"],
            env=env, cwd=tmp_path, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            ready, _, _ = select.select([run.stdout], [], [], 60)
            assert ready, "repro run printed nothing while waiting for workers"
            line = run.stdout.readline()
            assert line.startswith("broker listening on 127.0.0.1:"), line
            port = int(line.rsplit(":", 1)[1])
            worker = subprocess.run(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", f"127.0.0.1:{port}"],
                env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )
            out = run.communicate(timeout=120)[0]
        finally:
            if run.poll() is None:
                run.kill()
                run.communicate()
        assert worker.returncode == 0, worker.stderr
        assert run.returncode == 0
        assert "dgemm under CRISP" in out

    def test_worker_max_tasks_leaves_early(self, tmp_path):
        tasks = [task("dgemm", "CRISP"), task("dgemm", "PCSTALL")]
        with BrokerHarness(tasks) as h:
            limited = h.worker(name="limited", max_tasks=1)
            rest = h.worker(name="rest")
            t1 = threading.Thread(target=limited.run)
            t1.start()
            t1.join(timeout=60)
            assert limited.summary.completed == 1
            t2 = threading.Thread(target=rest.run)
            t2.start()
            results = h.join()
            t2.join(timeout=30)
        assert len(results) == 2 and all(r is not None for r in results)


# ----------------------------------------------------------------------
# Leases: death, expiry, heartbeats, exactly-once


class TestLeases:
    def test_dead_worker_lease_reclaimed_and_reassigned(self):
        tasks = [task("dgemm", "CRISP"), task("dgemm", "PCSTALL")]
        with BrokerHarness(tasks) as h:
            dead = h.connect()
            handshake(dead, "doomed")
            grant = lease(dead)
            dead.close()  # dies holding the lease; broker must reclaim
            w = h.worker(name="survivor")
            t = threading.Thread(target=w.run)
            t.start()
            results = h.join()
            t.join(timeout=30)
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
        with BrokerHarness(tasks) as h:
            hung = h.connect()
            handshake(hung, "hung")
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
            hung.close()
        assert results[0] == computed("dgemm", "CRISP")
        assert h.ex.progress.reclaims == 1

    def test_heartbeats_keep_a_slow_lease_alive(self):
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks) as h:
            slow = h.connect()
            handshake(slow, "slow")
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
            slow.close()
        assert h.ex.progress.reclaims == 0

    def test_task_timeout_caps_a_heartbeating_hang(self):
        """With task_timeout_s set, heartbeats cannot renew forever: the
        hard deadline reclaims a wedged-but-alive worker's lease."""
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(
            tasks, executor_kw=dict(task_timeout_s=0.5)
        ) as h:
            wedged = h.connect()
            handshake(wedged, "wedged")
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
            w = h.worker(name="healthy")
            t = threading.Thread(target=w.run)
            t.start()
            h.join()
            stop.set()
            beater.join()
            t.join(timeout=30)
            wedged.close()


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
        with plan, BrokerHarness(tasks, executor_kw=dict(retry=retry)) as h:
            sock = h.connect()
            handshake(sock, "faulty")
            grant = lease(sock)
            assert grant["attempt"] == 1
            send_frame(sock, {
                "type": "fail", "index": grant["index"],
                "attempt": grant["attempt"],
                "error_type": "InjectedFaultError", "error": "planned",
            })
            assert recv_frame(sock, strict=True)["type"] == "ack"
            results = h.join()
            sock.close()
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
        with BrokerHarness(tasks, executor_kw=dict(retry=retry)) as h:
            sock = h.connect()
            handshake(sock, "broken-env")
            grant = lease(sock)
            send_frame(sock, {
                "type": "fail", "index": grant["index"],
                "attempt": grant["attempt"],
                "error_type": "ValueError",
                "error": "bad input",
            })
            assert recv_frame(sock, strict=True)["type"] == "ack"
            results = h.join()
            sock.close()
        # One attempt only: ValueError is not retryable, and the broker
        # rebuilds it as the builtin type a serial run would raise.
        cell = results[0]
        assert isinstance(cell, FailedCell) and cell.attempts == 1
        assert cell.error == repr(ValueError("bad input"))

    def test_task_key_mismatch_runs_the_cell_in_process(self):
        tasks = [task("dgemm", "CRISP")]
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.01)
        with BrokerHarness(tasks, executor_kw=dict(retry=retry)) as h:
            sock = h.connect()
            handshake(sock, "skewed")
            grant = lease(sock)
            send_frame(sock, {
                "type": "fail", "index": grant["index"],
                "attempt": grant["attempt"],
                "error_type": "TaskKeyMismatch", "error": "version skew",
            })
            assert recv_frame(sock, strict=True)["type"] == "ack"
            results = h.join()
            sock.close()
        assert results[0] == computed("dgemm", "CRISP")
        # The refused attempt is not charged, and nothing was retried.
        (record,) = h.ex.progress.cells
        assert record.source == "serial" and record.attempts == 1
        assert h.ex.progress.retries == 0
        assert any("cannot cross the wire" in e for e in h.ex.progress.events)

    def test_lease_expiry_is_implicitly_retryable(self):
        assert not RetryPolicy().is_retryable(LeaseExpired("x"))
        # ...by policy type it is not listed, but the executor charges
        # it as retryable explicitly - guarded by the reclaim tests above.
        assert LeaseExpired.__mro__[1] is RuntimeError

    def _ship_corrupt(self, corrupt):
        """Ship ``corrupt(valid result payload)`` as attempt 1, then the
        valid payload as attempt 2; returns the harness."""
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks) as h:
            sock = h.connect()
            handshake(sock, "corruptor")
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
            sock.close()
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
        with BrokerHarness(tasks, executor_kw=dict(retry=retry)) as h:
            worker = h.worker(name="w0")
            thread = threading.Thread(target=worker.run)
            thread.start()
            results = h.join()
            thread.join(timeout=30)
        assert worker.summary.failed == 1 and worker.summary.completed == 0
        assert retry_kinds(h.ex.progress) == ["CorruptResultError"]
        (result,) = results
        assert math.isnan(result.delay_ns)
        assert dataclasses.replace(result, delay_ns=0.0) == dataclasses.replace(
            expected, delay_ns=0.0
        )


# ----------------------------------------------------------------------
# Adversarial peers


class TestAdversarialPeers:
    def test_protocol_version_mismatch_rejected(self):
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks) as h:
            sock = h.connect()
            send_frame(sock, {"type": "hello", "protocol": 99, "worker": "x"})
            reply = recv_frame(sock, strict=True)
            assert reply["type"] == "error"
            assert "version mismatch" in reply["error"]
            sock.close()
            self._finish(h)

    def test_unknown_message_type_rejected(self):
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks) as h:
            sock = h.connect()
            handshake(sock, "weird")
            send_frame(sock, {"type": "exfiltrate"})
            reply = recv_frame(sock, strict=True)
            assert reply["type"] == "error"
            sock.close()
            self._finish(h)

    def test_garbage_bytes_do_not_wedge_the_broker(self):
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks) as h:
            # Oversized length prefix, then torn garbage, then vanish.
            sock = h.connect()
            sock.sendall(struct.pack(">I", 2**31) + b"\x00junk")
            sock.close()
            sock2 = h.connect()
            sock2.sendall(b"\x00\x00\x00\x10only-half")
            sock2.close()
            self._finish(h)

    def test_goodbye_is_clean(self):
        tasks = [task("dgemm", "CRISP")]
        with BrokerHarness(tasks) as h:
            sock = h.connect()
            handshake(sock, "polite")
            send_frame(sock, {"type": "goodbye"})
            assert recv_frame(sock, strict=True)["type"] == "bye"
            assert recv_frame(sock, strict=True) is None
            sock.close()
            self._finish(h)

    @staticmethod
    def _finish(h):
        """The sweep must still complete via an honest worker."""
        w = h.worker(name="honest")
        t = threading.Thread(target=w.run)
        t.start()
        results = h.join()
        t.join(timeout=30)
        assert all(r is not None for r in results)
        assert h.ex.progress.reclaims == 0  # garbage held no leases


class TestWorkerAgainstHostileBroker:
    """The worker loop must turn broker misbehaviour into WorkerError."""

    def _serve(self, script):
        """One-shot fake broker: accepts one worker, runs ``script(conn)``."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.settimeout(10.0)
        port = listener.getsockname()[1]

        def run():
            conn, _ = listener.accept()
            conn.settimeout(10.0)
            try:
                script(conn)
            finally:
                conn.close()
                listener.close()

        thread = threading.Thread(target=run)
        thread.start()
        return port, thread

    def test_garbage_reply_is_worker_error(self):
        def script(conn):
            recv_frame(conn, strict=True)  # hello
            conn.sendall(struct.pack(">I", 2**31))  # oversized prefix

        port, thread = self._serve(script)
        with pytest.raises(WorkerError, match="protocol violation"):
            SweepWorker(port=port, timeout_s=5.0).run()
        thread.join(timeout=10)

    def test_mid_frame_disconnect_is_worker_error(self):
        def script(conn):
            recv_frame(conn, strict=True)
            conn.sendall(b"\x00\x00\x01\x00partial")  # torn frame, close

        port, thread = self._serve(script)
        with pytest.raises(WorkerError):
            SweepWorker(port=port, timeout_s=5.0).run()
        thread.join(timeout=10)

    def test_tampered_task_key_refused_before_compute(self):
        """A task whose rebuilt key mismatches the broker's is never
        executed - the worker reports TaskKeyMismatch instead."""
        t = task("dgemm", "CRISP")
        seen = {}

        def script(conn):
            recv_frame(conn, strict=True)  # hello
            send_frame(conn, {"type": "hello_ok",
                              "protocol": BROKER_PROTOCOL_VERSION,
                              "lease_s": 5.0, "heartbeat_s": 1.0,
                              "n_tasks": 1})
            recv_frame(conn, strict=True)  # ready
            send_frame(conn, {
                "type": "task", "index": 0, "attempt": 1,
                "key": "0" * 64,  # tampered
                "task": sweep_task_to_wire(t), "lease_s": 5.0,
            })
            seen["fail"] = recv_frame(conn, strict=True)
            send_frame(conn, {"type": "ack", "accepted": True})
            recv_frame(conn, strict=True)  # next ready
            send_frame(conn, {"type": "done"})

        port, thread = self._serve(script)
        worker = SweepWorker(port=port, timeout_s=10.0)
        summary = worker.run()
        thread.join(timeout=10)
        assert seen["fail"]["type"] == "fail"
        assert seen["fail"]["error_type"] == "TaskKeyMismatch"
        assert summary.failed == 1 and summary.completed == 0

    def test_no_broker_is_worker_error(self):
        with pytest.raises(WorkerError, match="no broker"):
            SweepWorker(port=1, connect_timeout_s=0.3, timeout_s=1.0).run()
