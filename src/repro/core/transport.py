"""Compact binary transport for shard results: one blob per batch.

Worker-to-parent result transport used to be :mod:`pickle` of whole
:class:`~repro.core.runner.ShardOutcome` objects, one future per shard.  This
module provides the other half of the batched execution data path (see
:mod:`repro.api.backends` for the dispatch side): a worker encodes *all* of a
batch's outcomes into a single ``bytes`` blob with a struct-packed columnar
layout, and the parent decodes it with ``struct.unpack_from`` over one
:class:`memoryview` — no per-record intermediate buffers, no pickle class
lookups, and a wire image a later remote (socket) backend can speak verbatim.

Layout
------
A blob is the header ``!2sBxI`` (magic ``b"RB"``, version, pad, outcome
count), then each :class:`~repro.core.runner.ShardOutcome` in the binary
layout of its field table (:mod:`repro.core.schema`).  The JSON store
(:mod:`repro.store.codec`) walks the same tables, so both codecs derive from
one table per record type.  Floats travel as IEEE-754 doubles, so they
round-trip exactly, including the NaN spacing a merged measurement can
carry, and a measurement's samples travel column by column.

The codec is versioned by :data:`TRANSPORT_VERSION` in the blob header.  It
is a *transport*, not a storage format: encoder and decoder always run the
same code revision (two ends of one pool or socket), so the version byte is
a corruption guard rather than a compatibility promise.

Batch size
----------
:func:`next_batch_size` is the one rule both dispatchers follow: the process
pool when it cuts a campaign into batches, and the remote lease book when it
grants one.  The codec's exactness is pinned against a pickle round-trip of
the same objects in the tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.runner import ShardOutcome, ShardTask
from repro.core.schema import Buffer, read, write
from repro.net.errors import MeasurementError, TransportError

TRANSPORT_MAGIC = b"RB"
TRANSPORT_VERSION = 2

_HEADER = struct.Struct("!2sBxI")  # magic, version, pad, outcome count


MIN_BATCH_SAMPLES = 64
"""Cost floor: a batch should carry at least this many probe samples.

One packet-pair sample simulates in roughly 100 µs; an IPC round-trip
(submit + pickle + queue hops + result) costs a few hundred µs.  Batching at
least ~64 samples keeps the per-round-trip overhead under a few percent of
the work it ships, which is what lets a sweep of *tiny* shards (the E10
tiny cells) stop drowning in dispatch."""


def next_batch_size(
    remaining: int,
    workers: int,
    shard_cost: Optional[int] = None,
) -> int:
    """How many shards the next batch should carry.

    The guided schedule takes ``ceil(remaining / (2 * workers))`` shards per
    submission, so early batches are large (amortising the per-round-trip
    cost) and the tail shrinks toward single shards — a straggler near the
    end steals at most one small batch of work instead of serialising a
    fixed-size chunk.  Two adjustments bound the ends of the range:

    * ``shard_cost`` (estimated probe samples per shard) imposes the
      :data:`MIN_BATCH_SAMPLES` floor, so campaigns of very small shards
      still ship enough work per round-trip to dwarf the IPC cost;
    * a single worker has nothing to balance, so the whole remainder
      travels as one batch (one IPC round-trip total).
    """
    if remaining < 1:
        raise MeasurementError(f"no shards remaining to batch: {remaining}")
    if workers <= 1:
        return remaining
    size = math.ceil(remaining / (2 * workers))
    if shard_cost is not None and shard_cost > 0:
        size = max(size, math.ceil(MIN_BATCH_SAMPLES / shard_cost))
    return min(remaining, max(1, size))


# --------------------------------------------------------------------- #
# Batches and blobs
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class Batch:
    """The shard tasks of one dispatch: a process-pool call or a remote lease.

    Both backends send it as ``pack(Batch(...))`` (:mod:`repro.core.schema`),
    so no backend pickles a task.
    """

    batch_id: int
    tasks: list[ShardTask]


def encode_outcomes(outcomes: Sequence[ShardOutcome]) -> bytes:
    """Encode a batch of shard outcomes into one self-contained blob.

    Raises :class:`~repro.net.errors.MeasurementError` when a field is
    outside its wire range (a negative integer or one of 65 bits or more,
    nothing a real campaign produces).
    """
    parts: list[bytes] = [_HEADER.pack(TRANSPORT_MAGIC, TRANSPORT_VERSION, len(outcomes))]
    try:
        for outcome in outcomes:
            write(outcome, parts)
    except struct.error as exc:
        raise MeasurementError(f"value outside transport field range: {exc}") from exc
    return b"".join(parts)


def decode_outcomes(
    blob: Buffer, *, shard_indexes: Optional[Sequence[int]] = None
) -> list[ShardOutcome]:
    """Decode one transport blob back into its batch of shard outcomes.

    Any truncation or corruption raises a typed
    :class:`~repro.net.errors.TransportError` carrying the byte ``offset``
    of the outcome that failed to decode, the ``shard_indexes`` the caller
    had in flight (when it passed them), and the ``decoded_indexes``
    recovered before the fault — so a dispatcher can requeue exactly the
    shards that were lost instead of failing the whole campaign.
    """
    expected = tuple(shard_indexes) if shard_indexes is not None else ()
    view = memoryview(blob)

    def fault(message: str, offset: int, decoded: Sequence[ShardOutcome]) -> TransportError:
        return TransportError(
            message,
            offset=offset,
            shard_indexes=expected,
            decoded_indexes=tuple(outcome.index for outcome in decoded),
        )

    if len(view) < _HEADER.size:
        raise fault(f"truncated transport blob: {len(view)} bytes", len(view), ())
    magic, version, count = _HEADER.unpack_from(view, 0)
    if magic != TRANSPORT_MAGIC:
        raise fault(f"bad transport magic: {bytes(magic)!r}", 0, ())
    if version != TRANSPORT_VERSION:
        raise fault(
            f"transport version mismatch: blob v{version}, codec v{TRANSPORT_VERSION}",
            0,
            (),
        )
    offset = _HEADER.size
    outcomes: list[ShardOutcome] = []
    try:
        for _ in range(count):
            outcome, offset = read(ShardOutcome, view, offset)
            outcomes.append(outcome)
    except (struct.error, IndexError, ValueError, UnicodeDecodeError) as exc:
        raise fault(f"corrupt transport blob: {exc}", offset, outcomes) from exc
    if offset != len(view):
        raise fault(
            f"transport blob has {len(view) - offset} trailing bytes", offset, outcomes
        )
    return outcomes


__all__ = [
    "Batch",
    "MIN_BATCH_SAMPLES",
    "TRANSPORT_VERSION",
    "TransportError",
    "decode_outcomes",
    "encode_outcomes",
    "next_batch_size",
]
