"""The lease book: every decision the remote coordinator makes, with no I/O.

:class:`LeaseBook` is the coordinator's state and rules without sockets,
threads, locks or a clock: the :class:`~repro.distributed.coordinator.
Coordinator` feeds it events, each stamped with the ``now`` it read, and
sends the grants it returns.  Every shard state write goes through
:data:`TRANSITIONS`.  A batch is a *lease* of the job that granted it: a
RESULT naming a batch that is not an open lease of the current job (a
finished job's, or one already requeued or taken over) frees its worker and
settles no shard, and such a SHARD_ERROR changes nothing.
:meth:`LeaseBook.finish` detaches the job and returns its report, so a
report cannot outlive its job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from queue import Queue
from typing import Optional, Sequence

from repro.core.runner import ShardOutcome, ShardTask
from repro.core.transport import Batch, next_batch_size
from repro.net.errors import MeasurementError

# Shard states.
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"
LOCAL = "local"  # taken over by the backend after stranding

# Shard events.
GRANT = "grant"
DELIVER = "deliver"
REQUEUE = "requeue"
QUARANTINE = "quarantine"
TAKEOVER = "takeover"

#: Every legal shard move, ``(state, event) -> state``; any other move raises.
TRANSITIONS: "dict[tuple[str, str], str]" = {
    (QUEUED, GRANT): LEASED,
    (LEASED, DELIVER): DONE,
    (LEASED, REQUEUE): QUEUED,
    (LEASED, QUARANTINE): QUARANTINED,
    (QUEUED, TAKEOVER): LOCAL,
    (LEASED, TAKEOVER): LOCAL,
}
_SETTLED = frozenset((DONE, QUARANTINED, LOCAL))

BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0

#: Queue sentinel: the job is finished (all shards done, quarantined, or
#: taken over locally).
JOB_DONE = object()
#: Queue sentinel: no workers remain while shards are outstanding; the
#: consumer should take the rest over (:meth:`LeaseBook.takeover`).
JOB_STRANDED = object()


@dataclass
class _Shard:
    task: ShardTask
    state: str = QUEUED
    attempts: int = 0
    not_before: float = 0.0


@dataclass
class _Worker:
    name: str
    last_beat: float
    batch: Optional[int] = None  # the batch it is running, from any job
    evicted: bool = False


_COUNTS = ("requeues", "evictions", "disconnects", "transport_faults", "shard_errors")


@dataclass
class Job:
    """One campaign: its shards, open leases, result queue and report.
    ``results`` gets each outcome once, then :data:`JOB_DONE` when the last
    shard settles (or :data:`JOB_STRANDED` when no worker is left)."""

    shards: "dict[int, _Shard]"
    shard_cost: Optional[int]
    leases: "dict[int, set[int]]" = field(default_factory=dict)  # batch id -> owed
    outstanding: int = 0
    results: "Queue[object]" = field(default_factory=Queue)
    counts: "dict[str, int]" = field(default_factory=lambda: dict.fromkeys(_COUNTS, 0))
    quarantined: "list[dict]" = field(default_factory=list)
    workers: "set[str]" = field(default_factory=set)  # the names it granted


class LeaseBook:
    """The coordinator's workers, its current job, and every rule over them."""

    def __init__(self, *, lease_timeout: float, max_attempts: int) -> None:
        if max_attempts < 1:
            raise MeasurementError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.workers: "dict[int, _Worker]" = {}
        self.job: Optional[Job] = None
        self._next_batch_id = 0

    def join(self, uid: int, name: str, now: float) -> None:
        self.workers[uid] = _Worker(name, now)

    def beat(self, uid: int, now: float) -> None:
        worker = self.workers.get(uid)
        if worker is not None:
            worker.last_beat = now

    def expire(self, now: float) -> "list[int]":
        """Evict silent busy workers; return their uids to disconnect."""
        stale = [
            uid
            for uid, worker in self.workers.items()
            if worker.batch is not None
            and not worker.evicted
            and now - worker.last_beat > self.lease_timeout
        ]
        for uid in stale:
            self.workers[uid].evicted = True
        return stale

    def leave(self, uid: int, now: float) -> None:
        """Forget a worker, requeue its lease, strand the job if none is left."""
        worker = self.workers.pop(uid, None)
        job = self.job
        if worker is None or job is None:
            return
        job.counts["evictions" if worker.evicted else "disconnects"] += 1
        lost = "worker evicted (missed heartbeats)" if worker.evicted else "worker connection lost"
        if worker.batch in job.leases:
            for index in sorted(job.leases.pop(worker.batch)):
                self._requeue(job, index, lost, now)
        if not self.workers and job.outstanding:
            job.results.put(JOB_STRANDED)

    def start(self, tasks: Sequence[ShardTask], shard_cost: Optional[int]) -> Job:
        """Attach a new job; only one is live at a time."""
        if self.job is not None:
            raise MeasurementError("coordinator already has an active job")
        job = Job({task.index: _Shard(task) for task in tasks}, shard_cost)
        job.outstanding = len(job.shards)
        if not job.outstanding:
            job.results.put(JOB_DONE)
        self.job = job
        return job

    def grant(self, now: float) -> "list[tuple[int, Batch]]":
        """Lease ready shards to idle workers; return ``(uid, batch)`` pairs."""
        job = self.job
        idle = [
            (uid, worker)
            for uid, worker in self.workers.items()
            if worker.batch is None and not worker.evicted
        ]
        if job is None or not idle:
            return []
        ready = sorted(
            index
            for index, shard in job.shards.items()
            if shard.state == QUEUED and shard.not_before <= now
        )
        grants: "list[tuple[int, Batch]]" = []
        for uid, worker in idle:
            if not ready:
                break
            size = next_batch_size(len(ready), len(self.workers), shard_cost=job.shard_cost)
            taken, ready = ready[:size], ready[size:]
            for index in taken:
                self._move(job, index, GRANT)
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            job.leases[batch_id] = set(taken)
            worker.batch = batch_id
            worker.last_beat = now
            job.workers.add(worker.name)
            grants.append((uid, Batch(batch_id, [job.shards[index].task for index in taken])))
        return grants

    def result(
        self,
        uid: int,
        batch_id: int,
        outcomes: Optional[Sequence[ShardOutcome]],
        error: str,
        now: float,
    ) -> None:
        """Free the worker and close its lease; every owed shard the decoded
        ``outcomes`` lack (all, when ``error`` kept them from decoding) requeues."""
        worker = self.workers.get(uid)
        if worker is None or worker.batch != batch_id:
            return
        worker.batch = None
        job = self.job
        owed = job.leases.pop(batch_id, None) if job is not None else None
        if job is None or owed is None:
            return
        if outcomes is None:
            job.counts["transport_faults"] += 1
        for outcome in outcomes or ():
            if outcome.index in owed:
                owed.discard(outcome.index)
                job.results.put(outcome)
                self._move(job, outcome.index, DELIVER)
        reason = error if outcomes is None else "shard missing from result batch"
        for index in sorted(owed):
            self._requeue(job, index, reason, now)

    def shard_errors(
        self, uid: int, batch_id: int, failures: "Sequence[tuple[int, str]]", now: float
    ) -> None:
        """Requeue the failed shards the lease owes; its RESULT closes it."""
        worker = self.workers.get(uid)
        job = self.job
        owed = job.leases.get(batch_id) if job is not None else None
        if worker is None or worker.batch != batch_id or job is None or owed is None:
            return
        job.counts["shard_errors"] += len(failures)
        for index, message in failures:
            if index in owed:
                owed.discard(index)
                self._requeue(job, index, message, now)

    def takeover(self) -> "list[ShardTask]":
        """Claim every unsettled shard for local execution, in index order."""
        job = self.job
        if job is None:
            return []
        job.leases.clear()
        claimed = [
            shard.task
            for _, shard in sorted(job.shards.items())
            if shard.state in (QUEUED, LEASED)
        ]
        for task in claimed:
            self._move(job, task.index, TAKEOVER)
        return claimed

    def finish(self, job: Job) -> dict:
        """Detach the job and return its report (workers persist)."""
        if self.job is job:
            self.job = None
        return {**job.counts, "quarantined": list(job.quarantined), "workers": sorted(job.workers)}

    def _move(self, job: Job, index: int, event: str) -> None:
        """The one shard state write; the last shard to settle ends the job."""
        shard = job.shards[index]
        state = TRANSITIONS.get((shard.state, event))
        if state is None:
            raise MeasurementError(f"shard {index}: no {event!r} move from {shard.state!r}")
        shard.state = state
        if state in _SETTLED:
            job.outstanding -= 1
            if not job.outstanding:
                job.results.put(JOB_DONE)

    def _requeue(self, job: Job, index: int, error: str, now: float) -> None:
        shard = job.shards[index]
        shard.attempts += 1
        if shard.attempts >= self.max_attempts:
            job.quarantined.append({"shard": index, "attempts": shard.attempts, "error": error})
            self._move(job, index, QUARANTINE)
            return
        shard.not_before = now + min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (shard.attempts - 1))
        job.counts["requeues"] += 1
        self._move(job, index, REQUEUE)


__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "JOB_DONE",
    "JOB_STRANDED",
    "Job",
    "LeaseBook",
    "TRANSITIONS",
]
