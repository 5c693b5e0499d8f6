"""Framed coordinator/worker wire protocol.

Every message is one length-prefixed frame::

    !2s B B I   magic b"RW", protocol version, message type, payload length
    payload     `length` bytes, message-type specific

Nothing that arrives over a socket is unpickled: HELLO, BATCH (host specs
and all) and SHARD_ERROR are records in the binary layout of their field
tables (:mod:`repro.core.schema`), and shard *results* are the blobs of
:mod:`repro.core.transport` (the bytes the process backend moves over
pipes).  A peer can send a malformed payload, never code.

The message set is deliberately small:

========================  =======================================================
:data:`MSG_HELLO`         worker -> coordinator: a :class:`Hello` record
:data:`MSG_BATCH`         coordinator -> worker: a :class:`Batch` record
:data:`MSG_SHARD_ERROR`   worker -> coordinator: shards that *failed* in a batch,
                          a :class:`ShardErrors` record
:data:`MSG_RESULT`        worker -> coordinator: ``u32 batch_id`` + result blob
                          (closes the batch's lease; always sent, possibly empty)
:data:`MSG_HEARTBEAT`     worker -> coordinator: liveness, empty payload
:data:`MSG_DRAIN`         coordinator -> worker: finish up and exit
:data:`MSG_BYE`           worker -> coordinator: clean goodbye
========================  =======================================================

A worker sends :data:`MSG_SHARD_ERROR` *before* the batch's
:data:`MSG_RESULT` so the coordinator processes failures while the lease is
still open; the RESULT frame is what closes a lease, and any leased shard
neither errored nor present in the decoded blob is treated as lost in
transport and requeued.

Truncated or malformed frames, and payloads that do not decode, raise
:class:`~repro.net.errors.ProtocolError`; a clean EOF between frames raises
it too (the caller decides whether that is a worker death or a shutdown).
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, TypeVar

from repro.core.schema import unpack
from repro.core.transport import Batch
from repro.net.errors import MeasurementError, ProtocolError

PROTOCOL_MAGIC = b"RW"
PROTOCOL_VERSION = 3

MSG_HELLO = 1
MSG_BATCH = 2
MSG_SHARD_ERROR = 3
MSG_RESULT = 4
MSG_HEARTBEAT = 5
MSG_DRAIN = 6
MSG_BYE = 7

_KNOWN_MESSAGES = frozenset(
    (MSG_HELLO, MSG_BATCH, MSG_SHARD_ERROR, MSG_RESULT, MSG_HEARTBEAT, MSG_DRAIN, MSG_BYE)
)

_FRAME_HEADER = struct.Struct("!2sBBI")  # magic, version, message type, payload len
_BATCH_ID = struct.Struct("!I")  # a RESULT payload's prefix
_DECODE_ERRORS = (struct.error, IndexError, ValueError, UnicodeDecodeError, MeasurementError)
_Record = TypeVar("_Record")

#: Sanity cap on one frame's payload: far above any real batch (a full
#: campaign's blob is a few MB), low enough that a corrupt length field
#: fails fast instead of trying to allocate gigabytes.
MAX_PAYLOAD = 256 * 1024 * 1024


def send_frame(
    sock: socket.socket,
    msg_type: int,
    payload: bytes = b"",
    lock: Optional[threading.Lock] = None,
) -> None:
    """Send one frame, atomically with respect to ``lock``.

    A worker's heartbeat thread and its batch loop share one socket, so both
    must serialise on the same lock or their frames would interleave.
    """
    frame = _FRAME_HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, msg_type, len(payload))
    if lock is None:
        sock.sendall(frame + payload)
        return
    with lock:
        sock.sendall(frame + payload)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ProtocolError` on EOF."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame: wanted {count} bytes, "
                f"got {count - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one complete frame, returning ``(message type, payload)``."""
    header = _recv_exactly(sock, _FRAME_HEADER.size)
    magic, version, msg_type, length = _FRAME_HEADER.unpack(header)
    if magic != PROTOCOL_MAGIC:
        raise ProtocolError(f"bad protocol magic: {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer v{version}, local v{PROTOCOL_VERSION}"
        )
    if msg_type not in _KNOWN_MESSAGES:
        raise ProtocolError(f"unknown message type: {msg_type}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload too large: {length} bytes")
    payload = _recv_exactly(sock, length) if length else b""
    return msg_type, payload


@dataclass(frozen=True, slots=True)
class Hello:
    """A :data:`MSG_HELLO` payload: who a newly connected worker is."""

    index: int
    pid: int


class ShardError(NamedTuple):
    """One shard a worker failed to run."""

    index: int
    message: str


@dataclass(slots=True)
class ShardErrors:
    """A :data:`MSG_SHARD_ERROR` payload: the failed shards of one batch."""

    batch_id: int
    failures: list[ShardError]


def decode_payload(record_type: type[_Record], payload: bytes) -> _Record:
    """Decode a :class:`Hello`, :class:`Batch` or :class:`ShardErrors` payload
    (each encoded by :func:`repro.core.schema.pack`)."""
    try:
        record: _Record = unpack(record_type, payload)
    except _DECODE_ERRORS as exc:
        raise ProtocolError(f"malformed {record_type.__name__} payload: {exc}") from exc
    return record


def pack_result(batch_id: int, blob: bytes) -> bytes:
    """A :data:`MSG_RESULT` payload: the batch id, then the transport blob."""
    return _BATCH_ID.pack(batch_id) + blob


def unpack_result(payload: bytes) -> "tuple[int, bytes]":
    """Split a :data:`MSG_RESULT` payload into its batch id and its blob."""
    try:
        (batch_id,) = _BATCH_ID.unpack_from(payload, 0)
    except struct.error as exc:
        raise ProtocolError(f"malformed result payload: {exc}") from exc
    return batch_id, payload[_BATCH_ID.size :]


__all__ = [
    "Batch",
    "Hello",
    "MSG_BATCH",
    "MSG_BYE",
    "MSG_DRAIN",
    "MSG_HEARTBEAT",
    "MSG_HELLO",
    "MSG_RESULT",
    "MSG_SHARD_ERROR",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "ShardError",
    "ShardErrors",
    "decode_payload",
    "pack_result",
    "recv_frame",
    "send_frame",
    "unpack_result",
]
