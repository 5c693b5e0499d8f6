"""Deterministic, seeded fault injection for the distributed layer.

The point of the remote backend's robustness machinery is that **no fault
changes the answer** — a killed worker, a hung heartbeat, a corrupted result
blob all end in the same bit-identical campaign digest serial execution
produces.  That claim is only testable if faults are reproducible, so this
module injects them deterministically: a :class:`ChaosSpec` names the fault,
which workers it strikes, and on which batch; a worker-side
:class:`ChaosEngine` counts batches and fires exactly when told to.  The
same spec always produces the same fault at the same point.

Specs travel to worker processes as JSON (every field, in the layout of the
spec's field table) through the :data:`CHAOS_ENV` environment variable, so
an externally launched ``python -m repro workers`` can be chaos-wrapped
exactly like the backend's self-spawned ones.

Fault kinds
-----------
``kill``              the worker runs half its batch then ``os._exit`` — the
                      coordinator sees EOF and requeues the whole lease.
``hang-heartbeat``    heartbeats stop and the batch never runs; the lease
                      timeout evicts the worker.
``drop-connection``   the socket closes mid-batch without a result.
``corrupt-result``    one byte of the result blob's header is flipped, so
                      decode fails with a typed TransportError and the lease
                      requeues.
``truncate-result``   the blob loses its tail — same detection path.
``delay-result``      the result arrives ``delay`` seconds late; with a
                      short lease timeout this exercises eviction racing a
                      late (dropped-as-stale) result.
``poison-shard``      the listed shards always fail on the listed workers —
                      with every worker listed, the shard exhausts its
                      attempts and is quarantined.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.core import schema
from repro.net.errors import MeasurementError

CHAOS_ENV = "REPRO_CHAOS"
"""Environment variable carrying a :class:`ChaosSpec` as JSON to workers."""

KIND_KILL = "kill"
KIND_HANG_HEARTBEAT = "hang-heartbeat"
KIND_DROP_CONNECTION = "drop-connection"
KIND_CORRUPT_RESULT = "corrupt-result"
KIND_TRUNCATE_RESULT = "truncate-result"
KIND_DELAY_RESULT = "delay-result"
KIND_POISON_SHARD = "poison-shard"

CHAOS_KINDS = (
    KIND_KILL,
    KIND_HANG_HEARTBEAT,
    KIND_DROP_CONNECTION,
    KIND_CORRUPT_RESULT,
    KIND_TRUNCATE_RESULT,
    KIND_DELAY_RESULT,
    KIND_POISON_SHARD,
)

#: Faults that act on the connection itself (the batch never completes).
_CONNECTION_KINDS = frozenset((KIND_KILL, KIND_HANG_HEARTBEAT, KIND_DROP_CONNECTION))
#: Faults that mangle the result blob after the batch ran.
_RESULT_KINDS = frozenset((KIND_CORRUPT_RESULT, KIND_TRUNCATE_RESULT, KIND_DELAY_RESULT))


@dataclass(frozen=True)
class ChaosSpec:
    """One reproducible fault: what, who, and when.

    ``workers`` are worker indexes (the ``--index`` a worker was launched
    with); ``after_batches`` is 1-based — the fault fires on the worker's
    Nth received batch — and ``times`` bounds how often it fires, so a
    corrupt-result fault with ``times=1`` poisons exactly one blob and the
    requeued shards then succeed.
    """

    kind: str
    workers: tuple[int, ...] = (0,)
    after_batches: int = 1
    times: int = 1
    seed: int = 0
    delay: float = 0.25
    poison_shards: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise MeasurementError(
                f"unknown chaos kind {self.kind!r}; expected one of {CHAOS_KINDS}"
            )
        object.__setattr__(self, "workers", tuple(self.workers))
        object.__setattr__(self, "poison_shards", tuple(self.poison_shards))

    def to_json(self) -> str:
        return json.dumps(schema.to_json(self))

    @classmethod
    def from_json(cls, raw: str) -> "ChaosSpec":
        try:
            spec: ChaosSpec = schema.from_json(cls, json.loads(raw))
        except (KeyError, TypeError, ValueError) as exc:
            raise MeasurementError(f"malformed chaos spec {raw!r}: {exc}") from exc
        return spec

    @classmethod
    def from_env(cls) -> Optional["ChaosSpec"]:
        """The spec in :data:`CHAOS_ENV`, if the environment carries one."""
        raw = os.environ.get(CHAOS_ENV, "").strip()
        return cls.from_json(raw) if raw else None


class ChaosEngine:
    """Worker-side fault executor: counts batches, fires when the spec says.

    One engine per worker process.  The engine only *decides*; the worker
    loop carries the actions out (it owns the socket and the process), so
    everything here is pure bookkeeping and trivially deterministic.
    """

    def __init__(self, spec: ChaosSpec, worker_index: int) -> None:
        self.spec = spec
        self.worker_index = worker_index
        self._armed = worker_index in spec.workers
        self._batches = 0
        self._fired = 0

    def _due(self) -> bool:
        return (
            self._armed
            and self._fired < self.spec.times
            and self._batches >= self.spec.after_batches
        )

    def on_batch_start(self) -> Optional[str]:
        """Called as each batch arrives; a connection-fault kind if one fires."""
        self._batches += 1
        if self.spec.kind in _CONNECTION_KINDS and self._due():
            self._fired += 1
            return self.spec.kind
        return None

    def should_poison(self, shard_index: int) -> bool:
        """Whether this shard must fail on this worker (no fire budget:
        a poison shard fails every time it lands here, which is what drives
        it through the attempt cap into quarantine)."""
        return (
            self.spec.kind == KIND_POISON_SHARD
            and self._armed
            and shard_index in self.spec.poison_shards
        )

    def mangle_result(self, blob: bytes) -> "tuple[bytes, float]":
        """The (possibly sabotaged) result blob plus seconds to stall it.

        Corruption flips one byte of the transport header's outcome-count
        field (offset 4, XOR with a seed-derived nonzero mask): the decoder
        then runs off the end of the blob and raises the typed
        :class:`~repro.net.errors.TransportError` every time — flipping an
        arbitrary payload byte could silently change a float instead of
        failing, which would be a *correctness* bug, not a fault.
        """
        if self.spec.kind not in _RESULT_KINDS or not self._due():
            return blob, 0.0
        self._fired += 1
        if self.spec.kind == KIND_DELAY_RESULT:
            return blob, max(0.0, self.spec.delay)
        if self.spec.kind == KIND_TRUNCATE_RESULT:
            keep = max(1, (len(blob) * 3) // 4)
            return blob[:keep], 0.0
        mask = (self.spec.seed % 255) + 1
        mangled = bytearray(blob)
        mangled[4] ^= mask
        return bytes(mangled), 0.0


__all__ = ["CHAOS_ENV", "CHAOS_KINDS", "ChaosEngine", "ChaosSpec"]
