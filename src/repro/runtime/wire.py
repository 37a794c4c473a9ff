"""Length-prefixed JSON framing shared by the service and the broker.

Every message is one *frame*: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON (one object per frame).
Length-prefixed JSON keeps the protocol stdlib-only, debuggable with a
pipe and ``json.loads``, and language-agnostic for non-Python peers.

This module is the single home of the framing helpers; the online
decision service (:mod:`repro.service.protocol`) re-exports them, and
the sweep broker (:mod:`repro.runtime.distributed`) speaks the same
frames to the workers it forks.

Float fidelity
--------------
Python's ``json`` serialises floats with ``repr``, which round-trips
IEEE-754 binary64 exactly. Every quantity that crosses the wire
(frequencies, stall nanoseconds, commit counts, work scales) therefore
survives bit-for-bit - the foundation of both ``repro replay``'s
online-equals-offline check and the sweep broker's
results-bit-identical-to-serial guarantee.

Strict framing
--------------
The blocking helpers take ``strict=True`` to distinguish a torn frame
from a clean close: a peer that disconnects *between* frames yields
``None`` (orderly end of stream), while a disconnect mid-header or
mid-payload raises :class:`ProtocolError`. The broker and worker agent
loops run strict so a SIGKILLed peer or garbage surfaces as a typed
error immediately instead of being mistaken for an orderly close. The
decision service parses with :class:`FrameDecoder` in its protocol
callback, and any disconnect, torn frame or not, ends the session.

Every read path is bounded: a length prefix beyond
:data:`MAX_FRAME_BYTES` is rejected before any allocation, and callers
are expected to arm socket timeouts, so no loop in this module can hang
on a stalled peer.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Dict, List, Mapping, Optional

from repro.telemetry.schema import FINITE_JSON

#: Ceiling on one frame's payload. A paper-scale observation (64 CUs x
#: 40 waves) is ~1 MB of JSON; 64 MB leaves room for much larger
#: platforms while bounding what a garbage length prefix can allocate.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A frame or payload that violates the wire protocol."""


# ----------------------------------------------------------------------
# Encoding

def encode_frame(message: Mapping[str, object]) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON."""
    payload = json.dumps(
        message, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return struct.pack(">I", len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, object]:
    """The JSON object in one frame; anything else, NaN and +-Infinity
    included (no encoder sends them), is a :class:`ProtocolError`."""
    try:
        message = FINITE_JSON.decode(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


# ----------------------------------------------------------------------
# Incremental decoding (the service's protocol callback, FrameReceiver)

class FrameDecoder:
    """Incremental frame decoder: bytes in, messages out.

    :meth:`feed` buffers whatever bytes arrived, split anywhere;
    :meth:`next_message` lifts the next complete frame out of the buffer
    and decodes it, or returns None until one is complete. A length
    prefix beyond ``max_bytes`` is refused as soon as its 4 bytes are
    in, before any of its payload is waited for.
    """

    __slots__ = ("max_bytes", "_buf")

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_bytes = max_bytes
        self._buf = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered and not yet given out as a message."""
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf += data

    def clear(self) -> None:
        self._buf.clear()

    def next_message(self) -> Optional[Dict[str, object]]:
        """The next complete frame's message; None until one is complete.

        Raises :class:`ProtocolError` for an oversized length prefix or a
        payload :func:`decode_payload` refuses (that frame is consumed).
        """
        buf = self._buf
        if len(buf) < 4:
            return None
        length = int.from_bytes(buf[:4], "big")
        if length > self.max_bytes:
            raise ProtocolError(
                f"frame length {length} exceeds {self.max_bytes} bytes"
            )
        end = 4 + length
        if len(buf) < end:
            return None
        payload = bytes(buf[4:end])
        del buf[:end]
        return decode_payload(payload)


# ----------------------------------------------------------------------
# Blocking sockets (clients, broker, worker)

def send_frame(sock: socket.socket, message: Mapping[str, object]) -> None:
    """Blocking-socket counterpart of the stream writer."""
    sock.sendall(encode_frame(message))


def _recv_upto(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes, or fewer if the peer closes first."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, strict: bool = False
) -> Optional[Dict[str, object]]:
    """Blocking read of one frame; None when the peer closed cleanly.

    With ``strict=True`` a disconnect inside a frame (torn header or
    torn payload - the signature of a killed peer) raises
    :class:`ProtocolError` instead of reading as a clean close.
    """
    header = _recv_upto(sock, 4)
    if not header:
        return None
    if len(header) < 4:
        if strict:
            raise ProtocolError(
                f"connection lost mid-header ({len(header)}/4 bytes)"
            )
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds {MAX_FRAME_BYTES} bytes"
        )
    payload = _recv_upto(sock, length)
    if len(payload) < length:
        if strict:
            raise ProtocolError(
                f"connection lost mid-frame "
                f"({len(payload)}/{length} payload bytes)"
            )
        return None
    return decode_payload(payload)


class ReceiveTimeout(Exception):
    """No complete frame arrived within the poll window (not an error:
    any partial bytes stay buffered and the next poll resumes)."""


class FrameReceiver:
    """Incremental frame decoder for a blocking socket with poll timeouts.

    ``recv_frame`` with a socket timeout cannot safely poll: a timeout
    that fires mid-frame discards the bytes already read and desyncs the
    stream. This receiver buffers across polls, so a server loop can
    wake every few hundred milliseconds to check a shutdown flag while
    a peer is silent (e.g. computing a long sweep cell between
    heartbeats) without ever tearing a frame it is half-way through.

    One receiver owns one socket's read side. ``recv(timeout_s)``
    returns the next frame, raises :class:`ReceiveTimeout` when none
    completed in the window, returns ``None`` on a clean close at a
    frame boundary, and raises :class:`ProtocolError` for everything a
    misbehaving peer can do: torn frames, oversized length prefixes,
    garbage JSON, a reset connection (strict mode).
    """

    _CHUNK = 65536

    def __init__(self, sock: socket.socket, strict: bool = True,
                 max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._sock = sock
        self.strict = strict
        self._decoder = FrameDecoder(max_bytes)
        self._eof = False

    def recv(self, timeout_s: float) -> Optional[Dict[str, object]]:
        """Next frame within ``timeout_s`` seconds (see class docstring)."""
        deadline = time.monotonic() + timeout_s
        decoder = self._decoder
        while True:
            message = decoder.next_message()
            if message is not None:
                return message
            if self._eof:
                if decoder.pending:
                    torn = decoder.pending
                    decoder.clear()
                    if self.strict:
                        raise ProtocolError(
                            f"connection closed mid-frame ({torn} stray bytes)"
                        )
                return None
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReceiveTimeout()
            self._sock.settimeout(remaining)
            try:
                data = self._sock.recv(self._CHUNK)
            except socket.timeout:
                raise ReceiveTimeout() from None
            except ConnectionError as exc:
                if self.strict and decoder.pending:
                    raise ProtocolError(
                        f"connection reset mid-frame: {exc}"
                    ) from None
                self._eof = True
                decoder.clear()
                continue
            if not data:
                self._eof = True
                continue
            decoder.feed(data)


__all__ = [
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "FrameReceiver",
    "ProtocolError",
    "ReceiveTimeout",
    "decode_payload",
    "encode_frame",
    "recv_frame",
    "send_frame",
]
