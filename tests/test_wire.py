"""Adversarial tests for the length-prefixed JSON framing layer.

The wire protocol (``repro.runtime.wire``) is spoken by the decision
service and between sweep brokers and workers; a misbehaving or killed
peer must surface as a *typed* error (or a clean None), never a hang or
a desynchronised stream. Every socket scenario here uses real sockets
with short timeouts, so a regression to blocking-forever fails fast.
"""

import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.wire import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameReceiver,
    ProtocolError,
    ReceiveTimeout,
    decode_payload,
    encode_frame,
    recv_frame,
    send_frame,
)


def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestEncodeDecode:
    def test_round_trip(self):
        msg = {"type": "x", "f": 0.1 + 0.2, "n": [1, 2.5e-300], "s": "αβ"}
        frame = encode_frame(msg)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == msg

    def test_float_fidelity_is_exact(self):
        values = [0.1, 1.0 / 3.0, 2**-52, 1.7976931348623157e308]
        out = decode_payload(encode_frame({"v": values})[4:])
        assert out["v"] == values  # bit-exact, not approximate

    def test_oversized_message_refused_at_send(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_garbage_json_is_typed(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_payload(b"\xff\xfe{{{")

    def test_non_object_payload_is_typed(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(b"[1,2,3]")

    @pytest.mark.parametrize("literal", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_constants_are_typed(self, literal):
        # No encoder sends them (allow_nan=False), and a server that
        # echoed one back could not encode its reply.
        with pytest.raises(ProtocolError, match="not a finite number"):
            decode_payload(b'{"type":"observe","seq":' + literal + b"}")

    def test_overlong_integer_is_typed(self):
        # Past the interpreter's int digit limit json raises a bare
        # ValueError; it must surface as the protocol's typed error.
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_payload(b'{"seq":' + b"7" * 5000 + b"}")

    def test_deep_nesting_is_typed(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_payload(b'{"seq":' + b"[" * 100_000 + b"}")


class TestRecvFrame:
    def test_round_trip(self):
        a, b = pair()
        send_frame(a, {"type": "ping", "x": 1.5})
        assert recv_frame(b) == {"type": "ping", "x": 1.5}
        a.close(), b.close()

    def test_clean_close_is_none_both_modes(self):
        for strict in (False, True):
            a, b = pair()
            a.close()
            assert recv_frame(b, strict=strict) is None
            b.close()

    def test_truncated_header(self):
        # Lenient: reads as end of stream. Strict: typed error.
        for strict, expect_raise in ((False, False), (True, True)):
            a, b = pair()
            a.sendall(b"\x00\x00")  # 2 of 4 header bytes
            a.close()
            if expect_raise:
                with pytest.raises(ProtocolError, match="mid-header"):
                    recv_frame(b, strict=True)
            else:
                assert recv_frame(b, strict=strict) is None
            b.close()

    def test_mid_frame_disconnect(self):
        frame = encode_frame({"type": "big", "pad": "y" * 1000})
        for strict in (False, True):
            a, b = pair()
            a.sendall(frame[: len(frame) // 2])
            a.close()
            if strict:
                with pytest.raises(ProtocolError, match="mid-frame"):
                    recv_frame(b, strict=True)
            else:
                assert recv_frame(b) is None
            b.close()

    def test_oversized_length_prefix(self):
        a, b = pair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame(b)
        a.close(), b.close()

    def test_garbage_json_payload(self):
        a, b = pair()
        junk = b"not json at all"
        a.sendall(struct.pack(">I", len(junk)) + junk)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            recv_frame(b)
        a.close(), b.close()


def drain(decoder):
    """Every message the decoder can give out now, in order."""
    out = []
    while (message := decoder.next_message()) is not None:
        out.append(message)
    return out


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**18, 10**18),
              st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
messages = st.dictionaries(st.text(max_size=6), json_values, max_size=5)


class TestFrameDecoder:
    """The incremental decoder the service parses frames with (and
    FrameReceiver buffers through): bytes in, messages out."""

    def test_round_trip(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"a": 1}))
        assert decoder.next_message() == {"a": 1}
        assert decoder.next_message() is None and decoder.pending == 0

    def test_nothing_fed_is_nothing_pending(self):
        decoder = FrameDecoder()
        assert decoder.next_message() is None
        assert decoder.pending == 0

    def test_torn_header_stays_pending(self):
        decoder = FrameDecoder()
        decoder.feed(b"\x00\x00\x01")
        assert decoder.next_message() is None
        assert decoder.pending == 3

    def test_torn_payload_stays_pending(self):
        frame = encode_frame({"k": "v" * 100})
        decoder = FrameDecoder()
        decoder.feed(frame[:-5])
        assert decoder.next_message() is None
        assert decoder.pending == len(frame) - 5
        decoder.feed(frame[-5:])
        assert decoder.next_message() == {"k": "v" * 100}

    def test_oversized_length_prefix(self):
        decoder = FrameDecoder()
        decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x")
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.next_message()

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(batch=st.lists(messages, max_size=6), data=st.data())
    def test_any_split_gives_the_same_messages_in_order(self, batch, data):
        stream = b"".join(encode_frame(m) for m in batch)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=12)))
        decoder = FrameDecoder()
        got = []
        for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
            decoder.feed(stream[lo:hi])
            got.extend(drain(decoder))
        assert got == batch
        assert decoder.pending == 0

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(excess=st.integers(1, 2**32 - 1 - MAX_FRAME_BYTES),
           tail=st.binary(max_size=16))
    def test_oversize_length_is_refused_before_its_payload(self, excess, tail):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"before": 1}))
        decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + excess) + tail)
        assert decoder.next_message() == {"before": 1}
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.next_message()

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(payload=st.one_of(
        st.binary(max_size=24).filter(lambda b: not b.strip().startswith(b"{")),
        st.sampled_from((b"NaN", b'{"x":NaN}', b'{"x":-Infinity}', b"[1]",
                         b'{"a":1', b"\xff\xfe{}")),
    ))
    def test_garbage_or_nan_payload_is_a_protocol_error(self, payload):
        decoder = FrameDecoder()
        decoder.feed(struct.pack(">I", len(payload)) + payload + encode_frame({"after": 2}))
        with pytest.raises(ProtocolError):
            decoder.next_message()
        # The refused frame is consumed; the stream stays in sync.
        assert decoder.next_message() == {"after": 2}


class TestFrameReceiver:
    def test_frames_survive_poll_timeouts(self):
        """A frame dripped byte-by-byte across many short polls arrives
        intact - the receiver's buffer must never tear mid-frame."""
        a, b = pair()
        receiver = FrameReceiver(b)
        frame = encode_frame({"type": "slow", "v": [0.25, 0.5]})

        def drip():
            for i in range(len(frame)):
                a.sendall(frame[i:i + 1])

        t = threading.Thread(target=drip)
        got = None
        t.start()
        for _ in range(1000):
            try:
                got = receiver.recv(0.002)
                break
            except ReceiveTimeout:
                continue
        t.join()
        assert got == {"type": "slow", "v": [0.25, 0.5]}
        a.close(), b.close()

    def test_multiple_frames_in_one_read(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        a.sendall(encode_frame({"i": 1}) + encode_frame({"i": 2}))
        assert receiver.recv(2.0) == {"i": 1}
        assert receiver.recv(2.0) == {"i": 2}
        a.close(), b.close()

    def test_timeout_is_typed_and_resumable(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        with pytest.raises(ReceiveTimeout):
            receiver.recv(0.05)
        send_frame(a, {"ok": True})
        assert receiver.recv(2.0) == {"ok": True}
        a.close(), b.close()

    def test_clean_close_is_none(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        send_frame(a, {"last": 1})
        a.close()
        assert receiver.recv(2.0) == {"last": 1}
        assert receiver.recv(2.0) is None
        b.close()

    def test_mid_frame_close_is_typed(self):
        a, b = pair()
        receiver = FrameReceiver(b, strict=True)
        a.sendall(encode_frame({"k": "v" * 500})[:-7])
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            receiver.recv(2.0)
        b.close()

    def test_mid_frame_close_lenient_is_none(self):
        a, b = pair()
        receiver = FrameReceiver(b, strict=False)
        a.sendall(encode_frame({"k": "v" * 500})[:-7])
        a.close()
        assert receiver.recv(2.0) is None
        b.close()

    def test_oversized_length_prefix_rejected_before_allocation(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        a.sendall(struct.pack(">I", 2**31))
        with pytest.raises(ProtocolError, match="exceeds"):
            receiver.recv(2.0)
        a.close(), b.close()

    def test_garbage_json_is_typed(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        junk = b"\x00garbage\xff"
        a.sendall(struct.pack(">I", len(junk)) + junk)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            receiver.recv(2.0)
        a.close(), b.close()


class TestServiceReExports:
    def test_protocol_module_reuses_wire(self):
        """service.protocol and runtime.wire must expose the *same*
        objects - two ProtocolError classes would break except clauses."""
        import repro.runtime.wire as wire
        import repro.service.protocol as protocol

        for name in ("ProtocolError", "encode_frame", "decode_payload",
                     "recv_frame", "send_frame"):
            assert getattr(protocol, name) is getattr(wire, name), name
        assert protocol.MAX_FRAME_BYTES == wire.MAX_FRAME_BYTES
