"""The coordinator: leases shard batches to workers and survives their loss.

The design is the testplan runner/pool shape the ROADMAP calls for, built on
the repo's one load-bearing invariant: **shard tasks are pure functions**,
so any shard may be re-executed anywhere, any number of times, and the
campaign digest cannot change.  That turns every fault into the same cheap
move — put the shard back on the queue:

* A worker holds at most one *lease* (one in-flight batch).  Leases are
  granted with :func:`~repro.core.transport.next_batch_size` guided sizing,
  the same schedule the local pool backends use.
* Workers heartbeat on an interval; a leased worker whose last sign of life
  is older than ``lease_timeout`` is **evicted** (its socket is closed, its
  lease requeued).  Idle workers are never evicted — silence without a
  lease costs nothing.
* Requeued shards back off exponentially (``backoff_base * 2**(attempts-1)``,
  capped at ``backoff_cap``) so a shard that keeps killing workers does not
  hot-loop through the fleet.
* A shard that fails ``max_attempts`` times is **quarantined**: recorded in
  the job's stats (and from there the :class:`~repro.api.ResultEnvelope`),
  never retried again, never a crash.
* Results arrive as :mod:`repro.core.transport` blobs and are decoded with
  the lease's shard indexes, so a corrupt blob raises a typed
  :class:`~repro.net.errors.TransportError` whose lost shards requeue
  precisely.
* When the last worker vanishes mid-job, the job is **stranded**: the
  backend atomically takes over the unfinished shards
  (:meth:`Coordinator.takeover_remaining`) and runs them locally.

The coordinator is job-at-a-time by construction (a
:class:`~repro.api.Session` serialises campaigns per backend), but workers
outlive jobs — a matrix sweep reuses the same warm fleet for every cell.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from queue import Queue
from typing import Optional, Sequence

from repro.core.runner import ShardOutcome, ShardTask
from repro.core.schema import pack
from repro.core.transport import decode_outcomes, next_batch_size
from repro.distributed.protocol import (
    MSG_BATCH,
    MSG_BYE,
    MSG_DRAIN,
    MSG_HELLO,
    MSG_RESULT,
    MSG_SHARD_ERROR,
    Batch,
    Hello,
    ShardErrors,
    decode_payload,
    recv_frame,
    send_frame,
    unpack_result,
)
from repro.net.errors import MeasurementError, ProtocolError, TransportError


def _shutdown(sock: socket.socket) -> None:
    """Force-disconnect: shutdown (to unblock any blocked recv) then close."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


# Shard lifecycle.
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"
LOCAL = "local"  # taken over by the backend after stranding

DEFAULT_LEASE_TIMEOUT = 2.0
DEFAULT_MAX_ATTEMPTS = 5
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 1.0

#: Queue sentinel: the job is finished (all shards done, quarantined, or
#: taken over locally).
JOB_DONE = object()
#: Queue sentinel: no workers remain while shards are outstanding — the
#: consumer should call :meth:`Coordinator.takeover_remaining`.
JOB_STRANDED = object()


@dataclass
class _ShardState:
    task: ShardTask
    status: str = QUEUED
    attempts: int = 0
    not_before: float = 0.0
    error: Optional[str] = None


class _Lease:
    """One in-flight batch: which shards a worker still owes us."""

    __slots__ = ("batch_id", "indexes")

    def __init__(self, batch_id: int, indexes: "set[int]") -> None:
        self.batch_id = batch_id
        self.indexes = indexes


class _Worker:
    __slots__ = ("uid", "sock", "send_lock", "name", "last_beat", "lease", "evicted")

    def __init__(self, uid: int, sock: socket.socket, name: str) -> None:
        self.uid = uid
        self.sock = sock
        self.send_lock = threading.Lock()
        self.name = name
        self.last_beat = time.monotonic()
        self.lease: Optional[_Lease] = None
        self.evicted = False


@dataclass
class _Job:
    """One campaign's shard set plus the accounting the envelope reports."""

    states: "dict[int, _ShardState]"
    shard_cost: Optional[int]
    override: Optional[int]
    max_attempts: int
    results: "Queue" = field(default_factory=Queue)
    outstanding: int = 0
    cancelled: bool = False
    stats: dict = field(
        default_factory=lambda: {
            "requeues": 0,
            "evictions": 0,
            "disconnects": 0,
            "transport_faults": 0,
            "shard_errors": 0,
            "quarantined": [],
            "workers": set(),
        }
    )


class Coordinator:
    """Serve one job at a time to a fleet of socket workers, fault-tolerantly."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
    ) -> None:
        if max_attempts < 1:
            raise MeasurementError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._lock = threading.Lock()
        self._workers_changed = threading.Condition(self._lock)
        self._workers: "dict[int, _Worker]" = {}
        self._job: Optional[_Job] = None
        self._next_worker_uid = 0
        self._next_batch_id = 0
        self._closed = False
        self._server = socket.create_server((host, port))
        self.address: "tuple[str, int]" = self._server.getsockname()[:2]
        threading.Thread(target=self._accept_loop, daemon=True).start()
        self._monitor_tick = min(0.05, lease_timeout / 4)
        threading.Thread(target=self._monitor_loop, daemon=True).start()

    # ------------------------------------------------------------------ #
    # Public surface (called by the backend)
    # ------------------------------------------------------------------ #

    def wait_for_workers(self, count: int = 1, timeout: float = 10.0) -> int:
        """Block until ``count`` workers are connected (or timeout); returns
        how many actually are."""
        deadline = time.monotonic() + timeout
        with self._workers_changed:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._workers_changed.wait(remaining)
            return len(self._workers)

    def submit_job(
        self,
        tasks: Sequence[ShardTask],
        *,
        shard_cost: Optional[int] = None,
        batch_override: Optional[int] = None,
    ) -> _Job:
        """Queue a campaign's shards and start dispatching to idle workers."""
        job = _Job(
            states={task.index: _ShardState(task) for task in tasks},
            shard_cost=shard_cost,
            override=batch_override,
            max_attempts=self.max_attempts,
        )
        job.outstanding = len(job.states)
        with self._lock:
            if self._job is not None:
                raise MeasurementError("coordinator already has an active job")
            self._job = job
            if job.outstanding == 0:
                job.results.put(JOB_DONE)
        self._maybe_dispatch()
        return job

    def cancel_job(self, job: _Job) -> None:
        """Stop dispatching; in-flight batches finish and are dropped."""
        with self._lock:
            if not job.cancelled:
                job.cancelled = True
                job.results.put(JOB_DONE)

    def finish_job(self, job: _Job) -> dict:
        """Detach the job and return its final stats (workers persist)."""
        with self._lock:
            if self._job is job:
                self._job = None
            stats = dict(job.stats)
            stats["workers"] = sorted(stats["workers"])
            return stats

    def takeover_remaining(self, job: _Job) -> "list[ShardTask]":
        """Atomically claim every unfinished shard for local execution."""
        with self._lock:
            claimed: "list[ShardTask]" = []
            for state in job.states.values():
                if state.status in (QUEUED, LEASED):
                    state.status = LOCAL
                    job.outstanding -= 1
                    claimed.append(state.task)
            if job.outstanding == 0 and not job.cancelled:
                job.results.put(JOB_DONE)
            claimed.sort(key=lambda task: task.index)
            return claimed

    def close(self) -> None:
        """Drain workers, close every socket, stop the service threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._workers_changed.notify_all()
        try:
            self._server.close()
        except OSError:
            pass
        for worker in workers:
            try:
                send_frame(worker.sock, MSG_DRAIN, lock=worker.send_lock)
            except OSError:
                pass
            _shutdown(worker.sock)

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Service threads
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # server closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._serve_connection, args=(sock,), daemon=True).start()

    def _monitor_loop(self) -> None:
        """Tick: evict leased workers gone silent, dispatch backoff expiries."""
        while True:
            time.sleep(self._monitor_tick)
            with self._lock:
                if self._closed:
                    return
                now = time.monotonic()
                stale = [
                    worker
                    for worker in self._workers.values()
                    if worker.lease is not None
                    and now - worker.last_beat > self.lease_timeout
                ]
                for worker in stale:
                    worker.evicted = True
            for worker in stale:
                # Shut down (not just close) so the reader thread's blocked
                # recv unblocks with EOF and unwinds into _drop_worker,
                # which requeues the lease.
                _shutdown(worker.sock)
            self._maybe_dispatch()

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(10.0)
            msg_type, payload = recv_frame(sock)
            if msg_type != MSG_HELLO:
                raise ProtocolError(f"expected HELLO, got message type {msg_type}")
            hello = decode_payload(Hello, payload)
            sock.settimeout(None)
        except (ProtocolError, OSError):
            _shutdown(sock)
            return
        name = f"worker-{hello.index}@pid{hello.pid}"
        with self._workers_changed:
            if self._closed:
                sock.close()
                return
            uid = self._next_worker_uid
            self._next_worker_uid += 1
            worker = _Worker(uid, sock, name)
            self._workers[uid] = worker
            if self._job is not None:
                self._job.stats["workers"].add(name)
            self._workers_changed.notify_all()
        self._maybe_dispatch()
        try:
            while True:
                msg_type, payload = recv_frame(sock)
                # The lease monitor reads last_beat under the lock when it
                # decides whether to evict; publish the beat the same way so
                # a stale read can never expire a live worker spuriously.
                with self._lock:
                    worker.last_beat = time.monotonic()
                if msg_type == MSG_RESULT:
                    self._on_result(worker, payload)
                elif msg_type == MSG_SHARD_ERROR:
                    self._on_shard_errors(worker, payload)
                elif msg_type == MSG_BYE:
                    break
                # MSG_HEARTBEAT needs nothing beyond the last_beat update.
        except (ProtocolError, OSError):
            pass
        finally:
            self._drop_worker(worker)

    # ------------------------------------------------------------------ #
    # State machine
    # ------------------------------------------------------------------ #

    def _maybe_dispatch(self) -> None:
        """Grant a lease to every idle worker that has ready work."""
        grants: "list[tuple[_Worker, Batch]]" = []
        with self._lock:
            job = self._job
            if job is None or job.cancelled or self._closed:
                return
            now = time.monotonic()
            fleet = max(1, len(self._workers))
            for worker in self._workers.values():
                if worker.lease is not None or worker.evicted:
                    continue
                ready = sorted(
                    (
                        state
                        for state in job.states.values()
                        if state.status == QUEUED and state.not_before <= now
                    ),
                    key=lambda state: state.task.index,
                )
                if not ready:
                    break
                size = next_batch_size(
                    len(ready), fleet, shard_cost=job.shard_cost, override=job.override
                )
                batch = ready[:size]
                batch_id = self._next_batch_id
                self._next_batch_id += 1
                for state in batch:
                    state.status = LEASED
                worker.lease = _Lease(batch_id, {state.task.index for state in batch})
                worker.last_beat = now
                job.stats["workers"].add(worker.name)
                grants.append((worker, Batch(batch_id, [state.task for state in batch])))
        for worker, grant in grants:
            try:
                send_frame(worker.sock, MSG_BATCH, pack(grant), lock=worker.send_lock)
            except OSError:
                self._drop_worker(worker)

    def _on_result(self, worker: _Worker, payload: bytes) -> None:
        batch_id, blob = unpack_result(payload)
        with self._lock:
            job = self._job
            lease = worker.lease
            if lease is not None and lease.batch_id == batch_id:
                worker.lease = None
                owed = tuple(sorted(lease.indexes))
            else:
                owed = ()  # stale batch (e.g. from before a cancel): best effort
            if job is None:
                return
        try:
            outcomes = decode_outcomes(blob, shard_indexes=owed)
        except TransportError as exc:
            with self._lock:
                job.stats["transport_faults"] += 1
                for index in owed:
                    self._requeue_locked(job, index, f"transport fault: {exc}")
            self._maybe_dispatch()
            return
        with self._lock:
            delivered = set()
            for outcome in outcomes:
                self._complete_locked(job, outcome)
                delivered.add(outcome.index)
            for index in owed:
                if index not in delivered:
                    # Neither delivered nor reported failed: lost in flight.
                    self._requeue_locked(job, index, "shard missing from result batch")
        self._maybe_dispatch()

    def _on_shard_errors(self, worker: _Worker, payload: bytes) -> None:
        errors = decode_payload(ShardErrors, payload)
        with self._lock:
            job = self._job
            lease = worker.lease
            if job is None:
                return
            job.stats["shard_errors"] += len(errors.failures)
            for index, message in errors.failures:
                if lease is not None and lease.batch_id == errors.batch_id:
                    lease.indexes.discard(index)
                self._requeue_locked(job, index, message)
        self._maybe_dispatch()

    def _drop_worker(self, worker: _Worker) -> None:
        """Forget a connection; requeue its lease; flag stranding."""
        with self._workers_changed:
            if self._workers.pop(worker.uid, None) is None:
                return  # already dropped (eviction raced the reader)
            job = self._job
            if job is not None:
                job.stats["evictions" if worker.evicted else "disconnects"] += 1
                if worker.lease is not None:
                    reason = (
                        "worker evicted (missed heartbeats)"
                        if worker.evicted
                        else "worker connection lost"
                    )
                    for index in sorted(worker.lease.indexes):
                        self._requeue_locked(job, index, reason)
                    worker.lease = None
                if (
                    not self._workers
                    and job.outstanding > 0
                    and not job.cancelled
                    and not self._closed
                ):
                    job.results.put(JOB_STRANDED)
            self._workers_changed.notify_all()
        _shutdown(worker.sock)
        self._maybe_dispatch()

    def _complete_locked(self, job: _Job, outcome: ShardOutcome) -> None:
        state = job.states.get(outcome.index)
        if state is None or state.status in (DONE, QUARANTINED, LOCAL):
            return  # duplicate (a requeued shard finished twice) or unknown
        state.status = DONE
        job.outstanding -= 1
        if not job.cancelled:
            job.results.put(outcome)
            if job.outstanding == 0:
                job.results.put(JOB_DONE)

    def _requeue_locked(self, job: _Job, index: int, error: str) -> None:
        state = job.states.get(index)
        if state is None or state.status != LEASED:
            return  # already completed, quarantined, or requeued elsewhere
        state.attempts += 1
        state.error = error
        if state.attempts >= job.max_attempts:
            state.status = QUARANTINED
            job.outstanding -= 1
            job.stats["quarantined"].append(
                {"shard": index, "attempts": state.attempts, "error": error}
            )
            if job.outstanding == 0 and not job.cancelled:
                job.results.put(JOB_DONE)
            return
        state.status = QUEUED
        backoff = min(self.backoff_cap, self.backoff_base * (2 ** (state.attempts - 1)))
        state.not_before = time.monotonic() + backoff
        job.stats["requeues"] += 1


__all__ = [
    "Coordinator",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_ATTEMPTS",
    "JOB_DONE",
    "JOB_STRANDED",
]
