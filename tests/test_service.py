"""The online decision service: protocol, server, client, replay.

The heart of this suite is the bit-identical contract: a live
``DecisionService`` fed a recorded epoch trace must return exactly the
decisions the offline ``DvfsSimulation`` made - across designs, after
shed-and-resend, and with other sessions misbehaving around it.

Servers run on a private event loop in a daemon thread, bound to
ephemeral ports, so tests neither collide nor leak.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pathlib
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.core.objectives import PerformanceCapObjective
from repro.core.sensitivity import LinearSensitivity
from repro.dvfs.designs import make_controller
from repro.gpu.cu import CuEpochStats
from repro.gpu.gpu import EpochResult, WaveEpochRecord
from repro.runtime.cache import config_hash, describe_objective
from repro.runtime.executor import RetryPolicy, SweepTask, run_task
from repro.obs.prom import parse_exposition
from repro.runtime.wire import FrameDecoder
from repro.service import protocol as proto
from repro.service.client import (
    DecisionClient,
    ServiceError,
    ServiceShutdown,
    SessionRejected,
    check_health,
)
from repro.service.replay import load_replay_trace, replay_trace
from repro.service.server import (
    BATCH_BUCKETS,
    MAX_INFLIGHT,
    NON_FINITE_FALLBACKS,
    DecisionService,
    ServiceConfig,
    _Connection,
)
from repro.telemetry import EpochTraceRecorder, TelemetryConfig, validate_trace_file

from helpers import ForcedLinePredictor


# ----------------------------------------------------------------------
# Harness

class ServerHandle:
    """A DecisionService running on its own loop in a daemon thread."""

    def __init__(self, config: ServiceConfig) -> None:
        self.service = DecisionService(config)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def health_port(self) -> int:
        port = self.service.health_port
        assert port is not None
        return port

    def counter(self, name: str) -> float:
        return self.service.registry.counter(name).value

    def shutdown(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        ).result(timeout=30)

    def stop(self) -> None:
        if not self.service._closed.is_set():
            self.shutdown()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def server():
    handle = ServerHandle(ServiceConfig(port=0, health_port=0))
    yield handle
    handle.stop()


def record_trace(path, design="PCSTALL", workload="dgemm", max_epochs=40,
                 objective=None):
    """Record a small replayable trace; returns (path, offline RunResult)."""
    config = small_config(n_cus=2, waves_per_cu=4)
    recorder = EpochTraceRecorder(TelemetryConfig(
        ring_size=0,
        jsonl_path=str(path),
        record_pc_attribution=False,
        record_observations=True,
    ))
    task = SweepTask(workload, design, config, scale=0.15,
                     max_epochs=max_epochs, oracle_sample_freqs=3,
                     collect_accuracy=True, objective=objective)
    with recorder:
        result = run_task(task, recorder=recorder)
    return str(path), result


@pytest.fixture(scope="module")
def pcstall_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "pcstall.jsonl"
    return record_trace(path)


def open_raw_session(port, trace):
    """A raw socket session (bypasses DecisionClient's conveniences)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.settimeout(30)
    proto.send_frame(sock, {
        "type": "open",
        "protocol": proto.PROTOCOL_VERSION,
        "design": trace.design,
        "config": trace.sim_config_wire,
        "objective": trace.objective,
    })
    reply = proto.recv_frame(sock)
    assert reply is not None and reply["type"] == "open_ok", reply
    return sock, reply


# ----------------------------------------------------------------------
# Protocol unit tests

def test_frame_round_trip():
    message = {"type": "ping", "x": [1.5, -2.25e-17], "s": "επω"}
    frame = proto.encode_frame(message)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert proto.decode_payload(frame[4:]) == message


def test_frame_rejects_non_object_payload():
    with pytest.raises(proto.ProtocolError):
        proto.decode_payload(b"[1, 2, 3]")
    with pytest.raises(proto.ProtocolError):
        proto.decode_payload(b"not json")


def test_epoch_result_wire_round_trip(pcstall_trace):
    import json

    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    for obs in trace.observations[:5]:
        result = proto.epoch_result_from_wire(obs["result"])
        # Re-encoding a decoded result reproduces the wire form exactly
        # (floats round-trip bit-for-bit through JSON repr).
        from repro.telemetry.schema import epoch_result_to_wire

        again = json.loads(json.dumps(epoch_result_to_wire(result)))
        assert again == obs["result"]


#: Finite floats, with the edges of binary64 drawn on purpose.
_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                     1e308, -1e308, 1.7976931348623157e308)),
    st.floats(allow_nan=False, allow_infinity=False),
)
_INTS = st.integers(-(2**63), 2**63)
_WAVE_RECORDS = st.builds(WaveEpochRecord, _INTS, _INTS, _INTS, _INTS, _INTS,
                          _FLOATS, _FLOATS, _FLOATS, _FLOATS, _FLOATS)
_CU_STATS = st.builds(CuEpochStats, _INTS, _INTS, _INTS, _INTS, _FLOATS, _INTS, _INTS)
_EPOCH_RESULTS = st.builds(
    EpochResult,
    _FLOATS, _FLOATS,
    st.lists(_FLOATS, max_size=4).map(tuple),
    st.lists(_CU_STATS, max_size=3).map(tuple),
    st.lists(st.lists(_WAVE_RECORDS, max_size=4).map(tuple), max_size=3).map(tuple),
    _INTS,
)


def exact(value):
    """A value's type and, for a float, its exact bits."""
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def result_fields(result):
    """Every field of an EpochResult, its CU stats and its wave records."""
    return (
        [exact(result.t_start), exact(result.t_end), exact(result.transitions)],
        [exact(f) for f in result.frequencies_ghz],
        [[exact(getattr(s, f.name)) for f in dataclasses.fields(CuEpochStats)]
         for s in result.cu_stats],
        [[[exact(getattr(r, name)) for name in WaveEpochRecord._fields] for r in cu]
         for cu in result.wave_records],
    )


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(result=_EPOCH_RESULTS)
def test_epoch_result_wire_round_trip_is_exact(result):
    from repro.telemetry.schema import epoch_result_to_wire

    frame = proto.encode_frame(epoch_result_to_wire(result))
    back = proto.epoch_result_from_wire(proto.decode_payload(frame[4:]))
    assert result_fields(back) == result_fields(result)


def test_wave_records_and_cu_stats_travel_flat():
    from repro.telemetry.schema import epoch_result_to_wire

    record = WaveEpochRecord(7, 1, 3, 4, 20, 1.5, 0.5, 0.25, 2.0, 3.0)
    stats = CuEpochStats(20, 15, 5, 21, 100.0, 4, 1)
    wire = epoch_result_to_wire(EpochResult(0.0, 1000.0, (1.7,), (stats,), ((record,),), 0))
    assert wire["wave_records"] == [[[7, 1, 3, 4, 20, 1.5, 0.5, 0.25, 2.0, 3.0]]]
    assert wire["cu_stats"] == [[20, 15, 5, 21, 100.0, 4, 1]]


@pytest.mark.parametrize("section,bad", [
    ("wave_records", [7, 1, 3, 4, 20, 1.5, 0.5, 0.25, 2.0]),
    ("wave_records", [7, 1, 3, 4, 20, 1.5, 0.5, 0.25, 2.0, 3.0, 0]),
    # A protocol-1 wave record: four ids and a nested 12-value capture.
    ("wave_records", [7, 1, 3, 4, [20, 15, 5, 1.5, 0.5, 0.25, 2.0, 3.0, 9.0, 3, 4, 1]]),
    ("wave_records", None),
    ("cu_stats", [20, 15, 5, 21, 100.0, 4]),
    # A protocol-1 CU capture, with active_cycles.
    ("cu_stats", [20, 15, 5, 21, 9, 100.0, 4, 1]),
    ("cu_stats", "committed"),
])
def test_wrong_arity_record_or_cu_capture_is_a_protocol_error(section, bad):
    wire = {
        "t_start": 0.0, "t_end": 1000.0, "frequencies_ghz": [1.7], "transitions": 0,
        "cu_stats": [[20, 15, 5, 21, 100.0, 4, 1]],
        "wave_records": [[[7, 1, 3, 4, 20, 1.5, 0.5, 0.25, 2.0, 3.0]]],
    }
    proto.epoch_result_from_wire(wire)  # the well-formed payload decodes
    if section == "cu_stats":
        wire["cu_stats"][0] = bad
    else:
        wire["wave_records"][0][0] = bad
    with pytest.raises(proto.ProtocolError):
        proto.epoch_result_from_wire(wire)


def test_schema_1_observation_trace_is_refused(tmp_path, pcstall_trace):
    from repro.telemetry.schema import TRACE_SCHEMA_VERSION

    assert TRACE_SCHEMA_VERSION == 3
    lines = pathlib.Path(pcstall_trace[0]).read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["schema_version"] = 1
    old = tmp_path / "schema1.jsonl"
    old.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match=r"version 1 .*version 3.*--trace FILE"):
        load_replay_trace(str(old))


def test_sim_config_wire_round_trip():
    from repro.telemetry.schema import sim_config_to_wire

    config = small_config(n_cus=4, waves_per_cu=8, cus_per_domain=2)
    rebuilt = proto.sim_config_from_wire(sim_config_to_wire(config))
    assert rebuilt == config
    assert config_hash(rebuilt) == config_hash(config)


def test_sim_config_from_wire_rejects_unknown_fields():
    from repro.telemetry.schema import sim_config_to_wire

    wire = sim_config_to_wire(small_config(n_cus=2, waves_per_cu=4))
    wire["gpu"]["from_the_future"] = 1
    with pytest.raises(proto.ProtocolError):
        proto.sim_config_from_wire(wire)


@pytest.mark.parametrize("field,value", [
    ("sync_quantum_ns", 0.0),
    ("issue_width", 0),
    ("waves_per_cu", 0),
])
def test_sim_config_from_wire_rejects_geometry_that_cannot_run(field, value):
    from repro.telemetry.schema import sim_config_to_wire

    wire = sim_config_to_wire(small_config(n_cus=2, waves_per_cu=4))
    wire["gpu"][field] = value
    with pytest.raises(proto.ProtocolError, match=field):
        proto.sim_config_from_wire(wire)


#: Power and DVFS configs a peer could send that used to be accepted
#: (the first three reproduce negative power, power falling with f, and
#: a ZeroDivisionError on first use).
HOSTILE_CONFIGS = [
    ("power", {"c_eff_per_cu": -1.0}),
    ("power", {"v_min": 1.1, "v_max": 0.7}),
    ("power", {"ivr_efficiency_peak": 0.0, "ivr_efficiency_floor": 0.0}),
    ("dvfs", {"frequencies_ghz": [1.3, 1.3, 1.7]}),
    ("dvfs", {"frequencies_ghz": [-1.0, 1.3, 1.7]}),
    # Outside the power model's [1.3, 2.2] GHz: V(f) clamps there, so
    # 3.0 GHz was priced at v_max and over-favoured by every objective.
    ("dvfs", {"frequencies_ghz": [1.0, 1.7, 3.0]}),
]


def hostile_wire(section, overrides):
    from repro.telemetry.schema import sim_config_to_wire

    wire = sim_config_to_wire(small_config(n_cus=2, waves_per_cu=4))
    wire[section].update(overrides)
    return wire


@pytest.mark.parametrize("section,overrides", HOSTILE_CONFIGS)
def test_sim_config_from_wire_rejects_hostile_power_and_dvfs(section, overrides):
    with pytest.raises(proto.ProtocolError):
        proto.sim_config_from_wire(hostile_wire(section, overrides))


@pytest.mark.parametrize("name,expect", [
    ("", type(None)),
    ("EDP", "EDP"),
    ("ED2P", "ED2P"),
    ("ed2p", "ED2P"),
    ("ENERGY@5%", "ENERGY@5%"),
    ("cap5", "ENERGY@5%"),
    ("cap5.5", "ENERGY@5.5%"),
    # Parsed as float(text) / 100 this read ENERGY@0.9000000000000001%.
    ("cap0.9", "ENERGY@0.9%"),
    ("QOS@1000", "QOS@1000"),
    ("STATIC@1.7GHz", "STATIC@1.7GHz"),
])
def test_objective_from_name(name, expect):
    objective = proto.objective_from_name(name)
    if expect is type(None):
        assert objective is None
    else:
        assert objective.name == expect


def test_objective_from_name_rejects_garbage():
    with pytest.raises(proto.ProtocolError):
        proto.objective_from_name("MAXIMIZE_VIBES")


_DECIMALS = st.from_regex(r"\A\d{1,4}(\.\d{1,17})?\Z")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    spelling=st.sampled_from(
        ["cap{}", "ENERGY@{}%", "QOS@{}", "STATIC@{}", "STATIC@{}GHz", "ED{}P", "ed{}p"]
    ),
    number=_DECIMALS,
)
def test_an_objective_name_rebuilds_its_objective(spelling, number):
    """A run header records ``objective.name``; replay and the service
    rebuild the objective from it, so the name must lose nothing."""
    if spelling.startswith(("ED", "ed")):
        number = number.split(".")[0]
    try:
        objective = proto.objective_from_name(spelling.format(number))
    except ValueError:  # out of the objective's range (cap >= 100%, QoS 0)
        return
    rebuilt = proto.objective_from_name(objective.name)
    assert describe_objective(rebuilt) == describe_objective(objective)
    assert rebuilt.name == objective.name


def test_every_cap_built_in_python_rebuilds_from_its_name():
    """An objective built in Python names itself as exactly as a parsed
    one: each cap of the k / 100000 grid reads back from its name."""
    wrong = [
        k for k in range(100_000)
        if proto.objective_from_name(
            PerformanceCapObjective(k / 100_000).name
        ).max_degradation != k / 100_000
    ]
    assert wrong == []


# ----------------------------------------------------------------------
# Trace recording (the telemetry side of the contract)

def test_observation_records_validate_and_stay_out_of_ring(tmp_path):
    path = tmp_path / "obs.jsonl"
    config = small_config(n_cus=2, waves_per_cu=4)
    recorder = EpochTraceRecorder(TelemetryConfig(
        ring_size=4096, jsonl_path=str(path), record_observations=True,
    ))
    task = SweepTask("dgemm", "PCSTALL", config, scale=0.15, max_epochs=10,
                     oracle_sample_freqs=3, collect_accuracy=True)
    with recorder:
        run_task(task, recorder=recorder)

    counts = validate_trace_file(path)
    assert counts["observation"] == counts["epoch"]
    assert counts["run"] == 1
    # Observations are stream-only: none in the ring, none counted.
    assert not any(r["type"] == "observation" for r in recorder.records)
    kept = [r for r in recorder.records if r["type"] in ("epoch", "domain")]
    assert len(kept) == recorder.total_records


def test_record_observations_requires_jsonl():
    with pytest.raises(ValueError, match="jsonl_path"):
        TelemetryConfig(record_observations=True)


def test_load_replay_trace_needs_observations(tmp_path):
    path = tmp_path / "plain.jsonl"
    config = small_config(n_cus=2, waves_per_cu=4)
    recorder = EpochTraceRecorder(TelemetryConfig(
        ring_size=0, jsonl_path=str(path), record_pc_attribution=False,
    ))
    task = SweepTask("dgemm", "PCSTALL", config, scale=0.15, max_epochs=5,
                     oracle_sample_freqs=3, collect_accuracy=True)
    with recorder:
        run_task(task, recorder=recorder)
    with pytest.raises(ValueError, match="--trace FILE"):
        load_replay_trace(str(path))


# ----------------------------------------------------------------------
# The correctness anchor: bit-identical online replay

@pytest.mark.parametrize("design", ["PCSTALL", "CRISP", "ACCREAC", "STATIC@1.7"])
def test_replay_bit_identical(tmp_path, server, design):
    path, _ = record_trace(tmp_path / f"{design.replace('@', '_')}.jsonl",
                           design=design, max_epochs=30)
    report = replay_trace(path, port=server.port)
    assert report.bit_identical, report.render()
    assert report.decisions_compared == report.epochs_streamed > 0


def test_replay_rebuilds_a_fractional_cap_from_the_header(tmp_path, server):
    # The header once recorded cap5.5 as "ENERGY@6%", and this run's
    # decisions diverged from epoch 4 on.
    path, _ = record_trace(tmp_path / "cap.jsonl", workload="comd", max_epochs=12,
                           objective=proto.objective_from_name("cap5.5"))
    report = replay_trace(path, port=server.port)
    assert report.bit_identical, report.render()
    assert report.decisions_compared == report.epochs_streamed == 12
    assert load_replay_trace(path).objective == "ENERGY@5.5%"


def test_replay_cli_exit_codes(server, pcstall_trace):
    from repro.cli import main

    path, _ = pcstall_trace
    assert main(["replay", path, "--port", str(server.port)]) == 0


def test_trace_cli_writes_one_file_every_reader_reads(tmp_path, server, capsys):
    """``repro trace --trace F``: the epoch records, one observation per
    epoch and the run's spans, written as they happen, all in F, which
    replay, dataset extraction and the accuracy report each read."""
    from repro.cli import main

    path = tmp_path / "dgemm.jsonl"
    assert main([
        "trace", "dgemm", "--cus", "2", "--waves", "4", "--scale", "0.15",
        "--max-epochs", "30", "--trace", str(path), "--drift",
    ]) == 0
    assert sorted(tmp_path.iterdir()) == [path]
    types = [json.loads(line)["type"] for line in path.read_text().splitlines()]
    assert types[0] == "run" and "trace" not in types
    assert types.count("observation") == types.count("epoch") > 0
    summary = types.index("summary")
    assert "span" in types[:summary]
    counts = validate_trace_file(str(path))
    assert counts["span"] > counts["epoch"]

    trace = load_replay_trace(str(path))
    assert len(trace.observations) == counts["epoch"]
    capsys.readouterr()
    assert main(["replay", str(path), "--port", str(server.port)]) == 0
    assert "bit-identical" in capsys.readouterr().out
    assert main(["learn", "extract", str(path), "-o", str(tmp_path / "ds")]) == 0
    assert main(["report", "--trace", str(path)]) == 0
    assert "dgemm/PCSTALL" in capsys.readouterr().out


def test_open_mirrors_offline_first_decision(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    with DecisionClient(port=server.port).connect() as client:
        decision = client.open_session(trace.design, trace.sim_config_wire,
                                       objective=trace.objective)
        assert decision == trace.chosen[0]
        assert client.n_domains == trace.n_domains


# ----------------------------------------------------------------------
# Session and error semantics

def test_protocol_1_open_is_rejected(server, pcstall_trace):
    """A version-1 client is refused at ``open`` whether it sends
    ``protocol: 1`` or omits the field, not admitted to fail later on an
    observe it encodes differently."""
    assert proto.PROTOCOL_VERSION == 2
    trace = load_replay_trace(pcstall_trace[0])
    for version in (1, None):
        frame = {"type": "open", "design": trace.design,
                 "config": trace.sim_config_wire, "objective": trace.objective}
        if version is not None:
            frame["protocol"] = version
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.settimeout(30)
            proto.send_frame(sock, frame)
            reply = proto.recv_frame(sock)
        assert reply["type"] == "error" and reply["code"] == "protocol_version", reply
        assert "protocol 2" in reply["error"] and f"sent {version}" in reply["error"]


def test_oracle_design_rejected(server):
    with DecisionClient(port=server.port).connect() as client:
        with pytest.raises(SessionRejected) as excinfo:
            client.open_session("ORACLE", small_config(n_cus=2, waves_per_cu=4))
        assert excinfo.value.code == "unservable_design"


def test_unknown_design_rejected(server):
    with DecisionClient(port=server.port).connect() as client:
        with pytest.raises(SessionRejected) as excinfo:
            client.open_session("NOPE", small_config(n_cus=2, waves_per_cu=4))
        assert excinfo.value.code == "bad_open"


@pytest.mark.parametrize("section,overrides", HOSTILE_CONFIGS)
def test_hostile_power_or_dvfs_config_is_a_bad_open(server, section, overrides):
    with DecisionClient(port=server.port).connect() as client:
        with pytest.raises(SessionRejected) as excinfo:
            client.open_session("PCSTALL", hostile_wire(section, overrides))
        assert excinfo.value.code == "bad_open"


def test_out_of_order_epoch_rejected_without_state_change(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    with DecisionClient(port=server.port).connect() as client:
        client.open_session(trace.design, trace.sim_config_wire,
                            objective=trace.objective)
        with pytest.raises(ServiceError, match="out_of_order"):
            client.observe(7, trace.observations[7]["result"],
                           truth_lines=trace.observations[7]["truth"])
        # The rejection changed nothing: the expected epoch still works
        # and the decision still matches the offline run.
        decision = client.observe(0, trace.observations[0]["result"],
                                  truth_lines=trace.observations[0]["truth"])
        assert decision == trace.chosen[1]
    assert server.counter("service_out_of_order") == 1


def test_session_cap_rejects_then_recovers(pcstall_trace):
    handle = ServerHandle(ServiceConfig(port=0, health_port=None, max_sessions=1))
    try:
        path, _ = pcstall_trace
        trace = load_replay_trace(path)
        with DecisionClient(port=handle.port).connect() as first:
            first.open_session(trace.design, trace.sim_config_wire,
                               objective=trace.objective)
            with DecisionClient(port=handle.port).connect() as second:
                with pytest.raises(SessionRejected) as excinfo:
                    second.open_session(trace.design, trace.sim_config_wire,
                                        objective=trace.objective)
                assert excinfo.value.code == "capacity"
        # First session closed; capacity is available again.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                with DecisionClient(port=handle.port).connect() as third:
                    third.open_session(trace.design, trace.sim_config_wire,
                                       objective=trace.objective)
                break
            except SessionRejected:
                time.sleep(0.02)
        else:
            pytest.fail("capacity never freed after session close")
        assert handle.counter("service_rejects") >= 1
    finally:
        handle.stop()


def test_orderly_close(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    client = DecisionClient(port=server.port).connect()
    client.open_session(trace.design, trace.sim_config_wire,
                        objective=trace.objective)
    client.close()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if server.counter("service_sessions_closed") >= 1:
            break
        time.sleep(0.02)
    assert server.counter("service_sessions_closed") >= 1
    assert server.counter("service_disconnects") == 0


def test_unknown_message_type_is_an_error_and_the_session_lives_on(
        server, pcstall_trace):
    # ``ping`` is not in the vocabulary (``/healthz`` is the liveness
    # probe); an older client that sends one keeps its session.
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    sock, _ = open_raw_session(server.port, trace)
    try:
        proto.send_frame(sock, {"type": "ping"})
        reply = proto.recv_frame(sock)
        assert reply["type"] == "error" and reply["code"] == "unknown_type", reply
        sock.sendall(observe_frame(trace, 0))
        reply = proto.recv_frame(sock)
        assert reply["type"] == "decision" and reply["decision"] == trace.chosen[1]
    finally:
        sock.close()


# ----------------------------------------------------------------------
# Framing in the protocol callback, each observation decided in its read

def observe_frame(trace, epoch, seq=None):
    obs = trace.observations[epoch]
    return proto.encode_frame({
        "type": "observe", "seq": epoch if seq is None else seq, "epoch": epoch,
        "result": obs["result"], "truth": obs["truth"],
    })


def test_frames_delivered_one_byte_at_a_time_are_served(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        stream = proto.encode_frame({
            "type": "open", "protocol": proto.PROTOCOL_VERSION,
            "design": trace.design, "config": trace.sim_config_wire,
            "objective": trace.objective,
        }) + observe_frame(trace, 0)
        for i in range(len(stream)):
            sock.sendall(stream[i:i + 1])
        opened = proto.recv_frame(sock)
        assert opened["type"] == "open_ok" and opened["decision"] == trace.chosen[0]
        decided = proto.recv_frame(sock)
        assert decided["type"] == "decision" and decided["decision"] == trace.chosen[1]
    finally:
        sock.close()


class RecordingTransport(asyncio.Transport):
    """A transport that keeps what it is asked to write."""

    def __init__(self) -> None:
        super().__init__()
        self.written = bytearray()

    def write(self, data) -> None:
        self.written += data

    def get_write_buffer_size(self) -> int:
        return 0


def one_read(trace, *frames):
    """Feed an ``open`` and ``frames`` to a fresh service in one read,
    inside a running loop; returns (service, the replies it wrote)."""
    open_frame = proto.encode_frame({
        "type": "open", "protocol": proto.PROTOCOL_VERSION,
        "design": trace.design, "config": trace.sim_config_wire,
        "objective": trace.objective,
    })

    async def feed():
        service = DecisionService(ServiceConfig(port=0, health_port=None))
        transport = RecordingTransport()
        conn = _Connection(service)
        conn.connection_made(transport)
        conn.data_received(b"".join((open_frame, *frames)))
        # Taken while the loop still runs: no later callback may answer.
        return service, bytes(transport.written)

    service, written = asyncio.run(feed())
    decoder = FrameDecoder()
    decoder.feed(written)
    return service, list(iter(decoder.next_message, None))


def test_an_observation_is_answered_in_the_read_that_delivers_it(pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    _, replies = one_read(trace, observe_frame(trace, 0))
    assert [r["type"] for r in replies] == ["open_ok", "decision"]
    assert replies[1]["decision"] == trace.chosen[1]


def test_a_full_read_lands_in_the_largest_finite_batch_bucket(pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    service, replies = one_read(
        trace, *(observe_frame(trace, e) for e in range(MAX_INFLIGHT))
    )
    assert [r["type"] for r in replies] == ["open_ok"] + ["decision"] * MAX_INFLIGHT
    status, body, _ = service._route("GET", "/metrics?format=prometheus")
    assert status == 200
    buckets = {
        dict(pair.split("=", 1) for pair in labels.split(","))["le"]: count
        for (name, labels), count in parse_exposition(body.decode()).items()
        if name == "service_batch_size_bucket"
    }
    assert max(float(le) for le in buckets if le != "+Inf") == MAX_INFLIGHT
    assert buckets[str(MAX_INFLIGHT)] == buckets["+Inf"] == 1


def test_observes_arriving_in_one_loop_iteration_are_one_batch_per_read(pcstall_trace):
    handle = ServerHandle(ServiceConfig(port=0, health_port=None))
    try:
        path, _ = pcstall_trace
        trace = load_replay_trace(path)
        socks = [open_raw_session(handle.port, trace)[0] for _ in range(2)]
        batches = handle.service.registry.histogram("service_batch_size", BATCH_BUCKETS)
        assert batches.total == 0  # an open is no batch

        # Hold the event loop while both observations land in the
        # server's socket buffers: its next iteration reads both.
        held, release = threading.Event(), threading.Event()

        def hold() -> None:
            held.set()
            release.wait(10)

        handle.loop.call_soon_threadsafe(hold)
        assert held.wait(10)
        for sock in socks:
            sock.sendall(observe_frame(trace, 0))
        time.sleep(0.2)
        release.set()

        for sock in socks:
            reply = proto.recv_frame(sock)
            assert reply["type"] == "decision" and reply["decision"] == trace.chosen[1]
            sock.close()
        # Each session's read is its own batch of one. Shutting down
        # runs on the loop, so it waits out a read still counting.
        handle.shutdown()
        assert handle.counter("service_batches") == 2
        assert (batches.total, batches.sum) == (2, 2.0)
    finally:
        handle.stop()


# ----------------------------------------------------------------------
# Fault injection: disconnects and slow consumers

def test_abrupt_disconnect_leaves_server_serving(server, pcstall_trace):
    path, _ = pcstall_trace
    trace = load_replay_trace(path)

    sock, _ = open_raw_session(server.port, trace)
    for epoch in range(3):
        obs = trace.observations[epoch]
        proto.send_frame(sock, {"type": "observe", "seq": epoch, "epoch": epoch,
                                "result": obs["result"], "truth": obs["truth"]})
        reply = proto.recv_frame(sock)
        assert reply is not None and reply["type"] == "decision"
    sock.close()  # vanish mid-session, no goodbye

    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if server.counter("service_disconnects") >= 1:
            break
        time.sleep(0.02)
    assert server.counter("service_disconnects") >= 1

    # The server is unharmed: a full replay is still bit-identical.
    report = replay_trace(path, port=server.port)
    assert report.bit_identical, report.render()


def send_observe_with_raw_seq(sock, trace, seq_json: bytes) -> None:
    """Epoch 0's observation with its ``seq`` spelled as raw JSON text."""
    obs = trace.observations[0]
    payload = proto.encode_frame({"type": "observe", "seq": 0, "epoch": 0,
                                  "result": obs["result"],
                                  "truth": obs["truth"]})[4:]
    payload = payload.replace(b'"seq":0,', b'"seq":' + seq_json + b",", 1)
    sock.sendall(struct.pack(">I", len(payload)) + payload)


@pytest.mark.parametrize("seq_json, codes", [
    (b"NaN", ["protocol"]),
    (b"-Infinity", ["protocol"]),
    # Parses to inf: decided, but the echoing reply cannot be encoded.
    (b"1e999", []),
])
def test_non_finite_seq_ends_only_its_session(pcstall_trace, seq_json, codes):
    # Regression: the server echoes ``seq``, and encoding a reply that
    # carries NaN raised inside the batch worker, which died: every
    # later observation of every session went unanswered.
    handle = ServerHandle(ServiceConfig(port=0, health_port=None))
    try:
        path, _ = pcstall_trace
        trace = load_replay_trace(path)
        sock, _ = open_raw_session(handle.port, trace)
        send_observe_with_raw_seq(sock, trace, seq_json)
        replies = []
        while (reply := proto.recv_frame(sock)) is not None:
            replies.append(reply)
        sock.close()
        assert [r["type"] for r in replies] == ["error"] * len(codes), replies
        assert [r["code"] for r in replies] == codes

        report = replay_trace(path, port=handle.port)
        assert report.bit_identical, report.render()
    finally:
        handle.stop()


def test_served_session_history_stays_bounded(server, pcstall_trace):
    # A served session runs as long as its client sends epochs, so its
    # controller keeps only the latest epoch - and decides exactly as an
    # offline controller that logs them all.
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    offline = make_controller(
        trace.design, proto.sim_config_from_wire(trace.sim_config_wire),
        proto.objective_from_name(trace.objective),
    )
    with DecisionClient(port=server.port).connect() as client:
        decision = client.open_session(trace.design, trace.sim_config_wire,
                                       objective=trace.objective)
        assert decision == offline.decide()
        (session,) = server.service._sessions.values()
        for epoch in range(1000):
            obs = trace.observations[epoch % len(trace.observations)]
            decision = client.observe(epoch, obs["result"], truth_lines=obs["truth"])
            offline.observe(proto.epoch_result_from_wire(obs["result"]))
            assert decision == offline.decide(), f"epoch {epoch}"
        log = session.controller.log
        assert len(log.chosen_freqs) == len(log.predictions) == 1
        assert log.chosen_freqs[-1] == decision
    assert len(offline.log.chosen_freqs) == 1001


def test_slow_consumer_is_shed_then_recovers_bit_identical(pcstall_trace):
    handle = ServerHandle(ServiceConfig(port=0, health_port=None))
    try:
        path, _ = pcstall_trace
        trace = load_replay_trace(path)
        n_epochs = len(trace.observations)
        assert n_epochs > MAX_INFLIGHT
        sock, open_reply = open_raw_session(handle.port, trace)
        decisions = {0: open_reply["decision"]}

        # One sendall of every observation at once: the server reads
        # many frames per read, and everything a read delivers past
        # MAX_INFLIGHT is shed.
        burst = b"".join(
            proto.encode_frame({
                "type": "observe", "seq": epoch, "epoch": epoch,
                "result": trace.observations[epoch]["result"],
                "truth": trace.observations[epoch]["truth"],
            })
            for epoch in range(n_epochs)
        )
        sock.sendall(burst)

        # Each burst frame earns exactly one reply: a decision (admitted
        # in order), a shed (over the inflight cap), or an out_of_order
        # error (admitted after earlier frames were shed - the epoch
        # guard rejects it without touching state). Shed and errored
        # epochs both just need an in-order resend.
        shed, resend, decided = set(), set(), set()
        for _ in range(n_epochs):
            reply = proto.recv_frame(sock)
            assert reply is not None
            if reply["type"] == "shed":
                shed.add(reply["seq"])
                resend.add(reply["seq"])
            elif reply["type"] == "error":
                assert reply["code"] == "out_of_order", reply
                resend.add(reply["seq"])
            else:
                assert reply["type"] == "decision", reply
                decisions[reply["epoch"]] = reply["decision"]
                decided.add(reply["seq"])
        assert shed, "burst past the inflight cap must shed something"
        assert decided, "admitted observations must still be decided"

        # Recovery: resend every undecided epoch in order, lock-step.
        # The server's expected-epoch guard makes the resends exact.
        for epoch in sorted(resend):
            for attempt in range(50):
                obs = trace.observations[epoch]
                proto.send_frame(sock, {
                    "type": "observe", "seq": 1000 + epoch, "epoch": epoch,
                    "result": obs["result"], "truth": obs["truth"],
                })
                reply = proto.recv_frame(sock)
                assert reply is not None
                if reply["type"] == "shed":
                    time.sleep(0.01)
                    continue
                assert reply["type"] == "decision", reply
                decisions[reply["epoch"]] = reply["decision"]
                break
            else:
                pytest.fail(f"epoch {epoch} still shed after 50 resends")
        sock.close()

        assert handle.counter("service_shed") >= len(shed)
        # Every offline decision was reproduced despite the shedding.
        for epoch in range(n_epochs):
            assert decisions[epoch] == trace.chosen[epoch], f"epoch {epoch}"
    finally:
        handle.stop()


# ----------------------------------------------------------------------
# Graceful shutdown

def test_graceful_shutdown_drains_and_notifies(pcstall_trace):
    handle = ServerHandle(ServiceConfig(port=0, health_port=None))
    try:
        path, _ = pcstall_trace
        trace = load_replay_trace(path)
        sock, _ = open_raw_session(handle.port, trace)
        for epoch in range(3):
            obs = trace.observations[epoch]
            proto.send_frame(sock, {"type": "observe", "seq": epoch,
                                    "epoch": epoch, "result": obs["result"],
                                    "truth": obs["truth"]})
            reply = proto.recv_frame(sock)
            assert reply is not None and reply["type"] == "decision"

        # One more observation in flight while shutdown runs: depending
        # on timing it is decided, shed, or beaten by the shutdown
        # notice - all legal; a hang is not.
        obs = trace.observations[3]
        proto.send_frame(sock, {"type": "observe", "seq": 3, "epoch": 3,
                                "result": obs["result"], "truth": obs["truth"]})
        handle.shutdown()

        saw_shutdown = False
        while True:
            reply = proto.recv_frame(sock)
            if reply is None:
                break
            if reply["type"] == "decision":
                assert reply["decision"] == trace.chosen[4]
            elif reply["type"] == "shutdown":
                saw_shutdown = True
            else:
                assert reply["type"] == "shed", reply
        sock.close()
        assert saw_shutdown, "clients must be told the server is going away"
    finally:
        handle.stop()


def test_open_rejected_while_draining(server):
    port = server.port  # the listener closes on shutdown; resolve first
    server.shutdown()
    with pytest.raises((SessionRejected, ServiceShutdown, OSError)):
        client = DecisionClient(
            port=port,
            retry=RetryPolicy(max_attempts=1),
        ).connect()
        client.open_session("PCSTALL", small_config(n_cus=2, waves_per_cu=4))


# ----------------------------------------------------------------------
# Health and metrics endpoints

def test_healthz_and_metrics(server, pcstall_trace):
    body = check_health(port=server.health_port)
    assert body["http_status"] == 200
    assert body["status"] == "ok"

    path, _ = pcstall_trace
    replay_trace(path, port=server.port)

    import http.client
    import json

    conn = http.client.HTTPConnection("127.0.0.1", server.health_port, timeout=5)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        snapshot = json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()
    assert snapshot["counters"]["service_decisions"] > 0
    assert snapshot["counters"]["service_sessions_opened"] >= 1
    assert snapshot["counters"][NON_FINITE_FALLBACKS] == 0
    assert "service_batch_size" in snapshot["histograms"]

    conn = http.client.HTTPConnection("127.0.0.1", server.health_port, timeout=5)
    try:
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
    finally:
        conn.close()


def test_non_finite_line_fallbacks_reach_metrics(server, pcstall_trace, monkeypatch):
    import repro.service.server as server_module

    def nan_controller(design, sim_config, objective=None, **_):
        controller = make_controller("STALL", sim_config, objective)
        controller.predictor = ForcedLinePredictor(
            sim_config.gpu.n_domains, LinearSensitivity(float("nan"), 100.0))
        return controller

    monkeypatch.setattr(server_module, "make_controller", nan_controller)
    path, _ = pcstall_trace
    trace = load_replay_trace(path)
    with DecisionClient(port=server.port).connect() as client:
        # Open: no epoch observed yet, so domain 0 holds its frequency.
        assert client.open_session("STALL", trace.sim_config_wire)[0] == 1.7
        # Then each decision falls back to the STALL line of the epoch.
        client.observe(0, trace.observations[0]["result"])

    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", server.health_port, timeout=5)
    try:
        conn.request("GET", "/metrics?format=prometheus")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    samples = [line for line in text.splitlines() if line.startswith(NON_FINITE_FALLBACKS)]
    assert len(samples) == 1 and samples[0].endswith(" 2"), samples


# ----------------------------------------------------------------------
# The CLI entry points, end to end (subprocess + signals)

def test_serve_subprocess_sigterm_drains(tmp_path, pcstall_trace):
    import os
    import re
    import signal
    import subprocess
    import sys

    path, _ = pcstall_trace
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--health-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    try:
        assert process.stdout is not None
        banner = process.stdout.readline()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+), health on :(\d+)",
                          banner)
        assert match, f"unexpected banner: {banner!r}"
        port, health_port = int(match.group(1)), int(match.group(2))

        from repro.service.client import wait_until_healthy

        wait_until_healthy(port=health_port, timeout_s=15.0)
        report = replay_trace(path, port=port)
        assert report.bit_identical, report.render()

        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
        assert process.returncode == 0, out
        assert "drained:" in out
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)
