"""The shard log's frame layout, written out independently of the store.

The store tests build and take apart ``shards.log`` bytes by hand so that a
change to the on-disk format in ``repro.store.codec`` fails them instead of
being silently mirrored.
"""

from __future__ import annotations

import struct
import zlib

FRAME = struct.Struct("!4sII")  # magic, payload length, payload CRC-32


def frame(payload: bytes) -> bytes:
    """One log frame holding ``payload``, with a valid CRC."""
    return FRAME.pack(b"RSEG", len(payload), zlib.crc32(payload)) + payload


def frame_payloads(log: bytes) -> list[bytes]:
    """The payloads of a well-formed log's frames, in log order."""
    payloads, offset = [], 0
    while offset < len(log):
        _, length, _ = FRAME.unpack_from(log, offset)
        payloads.append(log[offset + FRAME.size : offset + FRAME.size + length])
        offset += FRAME.size + length
    return payloads
