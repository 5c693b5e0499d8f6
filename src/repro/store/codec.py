"""JSON codec for campaign records, and the frames of the store's log.

The durable campaign store persists :class:`~repro.core.campaign.HostRoundResult`
records as JSON objects (one per JSONL line) in the layout of the record's
field table (:mod:`repro.core.schema`).  The encoding is *lossless* —
``decode_record(json.loads(json.dumps(encode_record(r))))`` equals ``r``
field for field, floats included, since :mod:`json` writes their shortest
round-tripping ``repr`` — which is what makes resume *bit-identical*: a
campaign merged from stored shards plus fresh ones has the same
:func:`~repro.core.runner.result_signature` as an uninterrupted run.
Decoding is strict (``bool`` is not an ``int``), so a damaged record raises
instead of decoding into a value no run could have produced.

The store's log frames live here too: each shard's JSONL payload is
committed as one ``magic | payload length | payload CRC-32 | payload`` frame
(see :func:`encode_frame` and :func:`read_frame`).
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, BinaryIO, Mapping, Optional

from repro.core.campaign import HostRoundResult
from repro.core.schema import from_json, to_json
from repro.net.errors import StoreError

FORMAT_VERSION = 3
"""On-disk format version stamped into every manifest."""

_FRAME_MAGIC = b"RSEG"
_FRAME_HEADER = struct.Struct("!4sII")  # magic, payload length, payload CRC-32
FRAME_HEADER_SIZE = _FRAME_HEADER.size

def encode_record(record: HostRoundResult) -> dict:
    """Encode one (round, host, test) campaign record."""
    return to_json(record)


def decode_record(data: Mapping[str, Any]) -> HostRoundResult:
    """Decode one (round, host, test) campaign record."""
    return from_json(HostRoundResult, data)


def encode_frame(payload: bytes) -> bytes:
    """One log frame: the 12-byte header, then ``payload``."""
    return _FRAME_HEADER.pack(_FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload


def read_frame(handle: BinaryIO, offset: int, size: int) -> Optional[bytes]:
    """The payload of the frame at ``offset`` in a log of ``size`` bytes.

    Returns ``None`` when the frame is a torn tail: its header is
    incomplete, its declared end lies beyond ``size``, or it ends exactly at
    ``size`` and fails its magic or CRC check.  Only the last append can be
    torn, so a bad frame that anything follows raises
    :class:`~repro.net.errors.StoreError`.
    """
    handle.seek(offset)
    header = handle.read(FRAME_HEADER_SIZE)
    if len(header) < FRAME_HEADER_SIZE:
        return None
    magic, length, crc = _FRAME_HEADER.unpack(header)
    end = offset + FRAME_HEADER_SIZE + length
    if end > size:
        return None
    payload = handle.read(length)
    if magic == _FRAME_MAGIC and len(payload) == length and zlib.crc32(payload) == crc:
        return payload
    if end == size:
        return None
    problem = "bad magic" if magic != _FRAME_MAGIC else "CRC mismatch"
    raise StoreError(f"corrupt frame at byte {offset}: {problem}")


def require(condition: bool, message: str, cause: Optional[Exception] = None) -> None:
    """Raise :class:`~repro.net.errors.StoreError` unless ``condition`` holds."""
    if not condition:
        raise StoreError(message) from cause
