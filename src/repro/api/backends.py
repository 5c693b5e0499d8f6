"""Pluggable execution backends: where a :class:`repro.api.Session` runs shards.

One small interface puts every way of running shard tasks behind a name, so
that a single backend — and, for the process backend, a single warm pool —
can be shared across campaigns, matrix cells, and resumed runs alike.

Three backends exist: ``serial`` (inline execution), ``process``
(:class:`~concurrent.futures.ProcessPoolExecutor`), and ``remote`` (TCP
workers, :mod:`repro.distributed`), each selected by name anywhere an
executor name is accepted.

Each backend runs a :class:`~repro.core.runner.ShardTask` list two ways:
:meth:`ExecutionBackend.map_shards` is an ordered barrier map and
:meth:`ExecutionBackend.iter_shards` yields in completion order.  The list is
one campaign's shards, or every cell's shards of a matrix sweep; indexes are
unique within it.  Shards are dispatched in adaptive *batches* (one pool
future — for the process backend, one IPC round-trip — per batch; sizing in
:func:`repro.core.transport.next_batch_size`).  Tasks ship whole, packed as
one :class:`~repro.core.transport.Batch` record, so a batch may span cells,
and its results come back as one struct-packed blob.

Failure discipline: backends raise the pool-infrastructure exceptions in
:data:`POOL_FAILURES` (no semaphores in a sandbox, fork restrictions, broken
workers) and nothing else of their own.  The process backend dispatches once:
a broken pool is discarded and the failure raised.  The session catches
exactly those exceptions and runs the remaining shards inline, because shard
tasks are pure functions.  Exceptions raised *by the work itself* propagate
unwrapped.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from pickle import PicklingError
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from repro.core.runner import ShardOutcome, ShardTask, run_shard
from repro.core.schema import pack, unpack
from repro.core.transport import Batch, decode_outcomes, encode_outcomes, next_batch_size
from repro.net.errors import MeasurementError

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

POOL_FAILURES = (OSError, PicklingError, BrokenExecutor, RuntimeError)
"""Pool-infrastructure failures that justify an inline serial retry.

``RuntimeError`` covers the stdlib executor's refusal to take work once it,
or the interpreter, is shutting down ("cannot schedule new futures after
shutdown").  Including it is safe for correctness: shard tasks are pure
functions, so a ``RuntimeError`` raised by the *work itself* simply
re-raises from the inline retry (one redundant execution in that
pathological case, never a wrong result).
"""


def _shard_cost(task: ShardTask) -> int:
    """Estimated probe samples one shard simulates — dispatch sizing only.

    Every shard of a dispatch carries the same config and tests (a matrix
    sweep shares them across its cells), so one task stands in for all of
    them.  The estimate feeds the :data:`~repro.core.transport.
    MIN_BATCH_SAMPLES` floor in :func:`~repro.core.transport.next_batch_size`;
    it never affects what is measured.
    """
    tests = task.tests if task.tests is not None else task.config.tests
    return max(
        1,
        len(task.specs)
        * task.config.rounds
        * len(tests)
        * task.config.samples_per_measurement,
    )


def _run_task_batch(payload: bytes) -> bytes:
    """Pool entry point: run a packed :class:`~repro.core.transport.Batch`,
    return one encoded blob, so the pool's pipes carry bytes both ways.

    Tasks ship whole, so one batch may mix the shards of several campaigns
    (a matrix sweep's cells); see :mod:`repro.core.transport` for the blob.
    """
    return encode_outcomes([run_shard(task) for task in unpack(Batch, payload).tasks])


class ExecutionBackend(ABC):
    """Where work runs: an execution strategy with an optionally warm pool.

    A backend may be handed to any number of campaigns and matrix sweeps
    before being closed; the process backend creates its pool lazily on
    first use and keeps it warm across calls, which is what lets a
    matrix sweep amortise worker spin-up over all of its cells.  Backends are
    context managers; :meth:`close` is idempotent.

    A backend serves one thread at a time: a :class:`repro.api.Session`
    runs each request on its caller's thread, and no backend locks its own
    state.

    Executor choice never affects *what is measured* — shard tasks and
    matrix cells are pure functions of their inputs — only where and how
    concurrently they run.
    """

    #: Registry name; also what a session's envelopes report as ``backend``.
    name: str = "abstract"

    @abstractmethod
    def map_shards(self, tasks: Sequence[ShardTask]) -> list[ShardOutcome]:
        """Run every shard task, returning outcomes in task order."""

    @abstractmethod
    def iter_shards(self, tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        """Yield shard outcomes in completion order.

        Closing the iterator early cancels work that has not started; work
        already running, or already handed to a worker's queue, finishes in
        the background.
        """

    def close(self) -> None:
        """Release pool resources.  Idempotent; the serial backend is a no-op."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Inline execution on the calling thread — the determinism reference."""

    name = "serial"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        # Accepted for signature uniformity; a serial backend has one worker.
        self.max_workers = 1

    def map_shards(self, tasks: Sequence[ShardTask]) -> list[ShardOutcome]:
        return [run_shard(task) for task in tasks]

    def iter_shards(self, tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        for task in tasks:
            yield run_shard(task)


class _PoolBackend(ExecutionBackend):
    """The pool machinery behind :class:`ProcessBackend`."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._pool: Optional[Executor] = None
        self._workers = 0

    def _worker_count(self) -> int:
        """Pool width: the explicit cap, else one worker per core.

        The stdlib executors spawn workers lazily on demand, so sizing to
        the machine costs a small job nothing while leaving headroom for a
        later large job on the same warm pool.
        """
        return self.max_workers or os.cpu_count() or 1

    def _create_pool(self) -> Executor:  # pragma: no cover - abstract
        raise NotImplementedError

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._workers = self._worker_count()
            self._pool = self._create_pool()
        return self._pool

    def _reset_broken_pool(self) -> None:
        """Discard a broken pool so the next call starts a fresh one.

        A per-run pool could simply be abandoned; a shared backend must not
        keep serving a corpse to every later campaign.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _shard_submitter(self) -> Callable[[tuple[ShardTask, ...]], "Future"]:
        """A callable submitting one shard batch to the warm pool, packed as
        a :class:`~repro.core.transport.Batch` (its future identifies it, so
        its id is 0); its outcomes return as one struct-packed blob."""
        pool = self._ensure_pool()
        return lambda batch: pool.submit(_run_task_batch, pack(Batch(0, list(batch))))

    def _dispatch_batches(self, tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        """Yield shard outcomes in completion order, batched per round-trip.

        Guided scheduling: the tasks are cut into batches of
        :func:`~repro.core.transport.next_batch_size` shards, so early
        batches are large and the tail shrinks toward single shards — a
        straggling worker near the end holds at most one small batch.  Every
        batch is submitted up front, so the executor's call queue hands each
        worker its next batch without a round trip through this thread.

        The dispatch happens once.  When the pool breaks (:class:`BrokenExecutor`
        — one worker dying takes the whole stdlib pool with it), the pool is
        discarded and the failure raised; the session runs the shards not yet
        yielded inline.
        """
        submit = self._shard_submitter()
        pending = deque(tasks)
        workers = max(1, self._workers)
        cost = _shard_cost(tasks[0])
        inflight: "dict[Future, tuple[ShardTask, ...]]" = {}
        try:
            while pending:
                size = next_batch_size(len(pending), workers, shard_cost=cost)
                batch = tuple(pending.popleft() for _ in range(size))
                inflight[submit(batch)] = batch
            while inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    batch = inflight.pop(future)
                    yield from decode_outcomes(
                        future.result(), shard_indexes=tuple(task.index for task in batch)
                    )
        except BrokenExecutor:
            self._reset_broken_pool()
            raise
        finally:
            # Reached on success, pool failure, and early close (the consumer
            # raised): cancel the batches that have not started.  Those the
            # executor already moved into its call queue (at most workers + 1)
            # cannot be cancelled and finish in the background.  A healthy
            # pool stays warm — it may be shared with other work.
            for future in inflight:
                future.cancel()

    def map_shards(self, tasks: Sequence[ShardTask]) -> list[ShardOutcome]:
        if not tasks:
            return []
        by_index: dict[int, ShardOutcome] = {}
        for outcome in self._dispatch_batches(tasks):
            by_index[outcome.index] = outcome
        return [by_index[task.index] for task in tasks]

    def iter_shards(self, tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        if not tasks:
            return
        yield from self._dispatch_batches(tasks)

    def map_items(
        self, fn: Callable[[_ItemT], _ResultT], items: Sequence[_ItemT]
    ) -> list[_ResultT]:
        """Run ``fn`` over picklable work items on the pool, in item order."""
        if not items:
            return []
        pool = self._ensure_pool()
        try:
            return list(pool.map(fn, items))
        except BrokenExecutor:
            self._reset_broken_pool()
            raise

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


class ProcessBackend(_PoolBackend):
    """A lazily created, reusable :class:`ProcessPoolExecutor`.

    Batches ship whole :class:`ShardTask` records, so one warm pool serves
    any mix of campaigns — a matrix sweep's batches span its cells — with
    zero worker spin-up after the first.
    """

    name = "process"

    def _create_pool(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self._workers)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

BackendFactory = Callable[[Optional[int]], ExecutionBackend]


def _remote_factory(max_workers: Optional[int]) -> ExecutionBackend:
    """Lazy factory for the socket-based remote backend.

    Imported on first use so :mod:`repro.api` never pays for (or cycles
    with) the distributed machinery unless a caller selects ``remote``.
    """
    from repro.distributed.backend import RemoteBackend

    return RemoteBackend(max_workers)


_BACKENDS: dict[str, BackendFactory] = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
    "remote": _remote_factory,
}
"""Each backend name's factory, called as ``factory(max_workers)``."""


def backend_names() -> tuple[str, ...]:
    """The backend names, in registry order."""
    return tuple(_BACKENDS)


def create_backend(
    backend: "str | ExecutionBackend", max_workers: Optional[int] = None
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through) to an instance."""
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        factory = _BACKENDS[backend]
    except KeyError:
        known = ", ".join(_BACKENDS)
        raise MeasurementError(
            f"unknown execution backend {backend!r}; registered: {known}"
        ) from None
    return factory(max_workers)


__all__ = [
    "POOL_FAILURES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "backend_names",
    "create_backend",
]
