"""Framed coordinator/worker wire protocol.

Every message is one length-prefixed frame::

    !2s B B I   magic b"RW", protocol version, message type, payload length
    payload     `length` bytes, message-type specific

Payloads reuse the codecs the rest of the library already trusts: shard
*results* travel as the struct-packed blobs of :mod:`repro.core.transport`
(the same bytes the process backend moves over pipes), and shard *tasks*
travel pickled — exactly what :class:`~concurrent.futures.
ProcessPoolExecutor` would do, over a socket instead of a pipe.

The message set is deliberately small:

========================  =======================================================
:data:`MSG_HELLO`         worker -> coordinator: pickled ``{"index", "pid"}``
:data:`MSG_BATCH`         coordinator -> worker: ``u32 batch_id`` + pickled tasks
:data:`MSG_SHARD_ERROR`   worker -> coordinator: shards that *failed* in a batch,
                          a :class:`ShardErrors` record in the binary layout
                          of :mod:`repro.core.schema`
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

Truncated or malformed frames raise
:class:`~repro.net.errors.ProtocolError`; a clean EOF between frames raises
it too (the caller decides whether that is a worker death or a shutdown).
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.core.schema import pack, unpack
from repro.net.errors import ProtocolError

PROTOCOL_MAGIC = b"RW"
PROTOCOL_VERSION = 2

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


class ShardError(NamedTuple):
    """One shard a worker failed to run."""

    index: int
    message: str


@dataclass(slots=True)
class ShardErrors:
    """A :data:`MSG_SHARD_ERROR` payload: the failed shards of one batch."""

    batch_id: int
    failures: list[ShardError]


def pack_shard_errors(batch_id: int, failures: "list[tuple[int, str]]") -> bytes:
    """Encode a batch's failed shards: ``(shard index, error message)`` pairs."""
    return pack(ShardErrors(batch_id, [ShardError(*failure) for failure in failures]))


def unpack_shard_errors(payload: bytes) -> "tuple[int, list[ShardError]]":
    """Decode a :data:`MSG_SHARD_ERROR` payload back into its failures."""
    try:
        errors: ShardErrors = unpack(ShardErrors, payload)
    except (struct.error, IndexError, ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed shard-error payload: {exc}") from exc
    return errors.batch_id, errors.failures


__all__ = [
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
    "pack_shard_errors",
    "recv_frame",
    "send_frame",
    "unpack_shard_errors",
]
