"""Fault-tolerant distributed shard execution over TCP.

This package is the ROADMAP's "remote backend in the testplan runner/pool
style": a :class:`~repro.distributed.coordinator.Coordinator` serves
:class:`~repro.core.runner.ShardTask` batches to worker processes that
connect over a socket, heartbeat on an interval, and stream results back as
the struct-packed blobs of :mod:`repro.core.transport`.  The robustness
layer around the wire format — per-job leases, missed-heartbeat eviction,
capped-exponential-backoff requeue, poison-shard quarantine — lives in the
lease book (:mod:`repro.distributed.leases`), which the coordinator feeds;
deterministic fault injection lives in :mod:`repro.distributed.chaos`.

Select the backend anywhere an executor name is accepted::

    Session(backend="remote")          # spawns local workers over loopback
    python -m repro run --executor remote ...
    python -m repro workers --connect HOST:PORT   # join an external pool

Determinism contract: shard tasks are pure functions and results merge in
canonical order, so worker count, batch layout, requeues, and every injected
fault leave campaign digests bit-identical to serial execution.
"""

from repro.distributed.backend import RemoteBackend
from repro.distributed.chaos import ChaosSpec
from repro.distributed.coordinator import Coordinator
from repro.distributed.worker import run_worker

__all__ = ["ChaosSpec", "Coordinator", "RemoteBackend", "run_worker"]
