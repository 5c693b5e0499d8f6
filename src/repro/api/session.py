"""The :class:`Session` facade: one front door for all measurement work.

A session owns an execution backend (and hence at most one warm worker
pool), runs the typed requests from :mod:`repro.api.requests` on the
caller's thread, and returns versioned
:class:`~repro.api.envelope.ResultEnvelope` s.  It is the only place shards
execute: library callers and the ``python -m repro`` CLI both route through
here, so argument conventions for seeds, shards, stores, OS mixes, and
checkpoints are normalized exactly once, and one checkpointed shard stream
(:func:`_iter_completed`) serves campaigns, resumes, and matrix sweeps.

Determinism contract: a request's measurement content is a pure function of
the request (see :mod:`repro.core.runner`); the session's backend choice and
worker count change wall-clock time and memory, never ``result_digest``.

>>> from repro.api import CampaignRequest, Session
>>> from repro.core.campaign import CampaignConfig
>>> with Session(backend="serial") as session:
...     envelope = session.run(CampaignRequest(
...         scenario="imc2002-survey",
...         config=CampaignConfig(rounds=1, samples_per_measurement=2),
...         hosts=2, seed=7,
...     ))
>>> envelope.kind
'campaign'
"""

from __future__ import annotations

import hashlib
import warnings
from contextlib import closing
from typing import Any, Iterator, Optional, Sequence, Union

from repro.api.backends import (
    POOL_FAILURES,
    ExecutionBackend,
    backend_names,
    create_backend,
)
from repro.api.envelope import (
    KIND_CAMPAIGN,
    KIND_MATRIX,
    KIND_PROBE,
    ResultEnvelope,
    plan_digest,
)
from repro.api.requests import (
    CampaignRequest,
    MatrixRequest,
    ProbeRequest,
    Request,
    ResumeRequest,
    as_store,
)
from repro.core.prober import ProbeReport, Prober
from repro.core.runner import (
    EXECUTOR_SERIAL,
    CampaignPlan,
    CheckpointHook,
    ShardOutcome,
    ShardTask,
    merge_records,
    result_digest,
    run_shard,
)
from repro.net.errors import MeasurementError
from repro.scenarios.matrix import MatrixResult
from repro.store.store import CampaignStore
from repro.workloads.testbed import build_testbed


def _probe_signature(report: ProbeReport) -> tuple:
    """A probe report's measurement content (mirrors ``record_signature``)."""
    samples: tuple = ()
    if report.result is not None:
        samples = tuple(
            (sample.index, sample.forward.value, sample.reverse.value, sample.spacing)
            for sample in report.result.samples
        )
    return (report.test.value, report.error or "", report.ineligible, samples)


def _dispatches(tasks: Sequence[ShardTask], backend: ExecutionBackend) -> bool:
    """True when :func:`_iter_completed` hands ``tasks`` to ``backend``."""
    return backend.name != EXECUTOR_SERIAL and len(tasks) > 1


def _campaign_envelope(
    plan: CampaignPlan, digest: str, outcomes: Sequence[ShardOutcome], meta: dict[str, Any]
) -> ResultEnvelope:
    """Merge ``plan``'s shard outcomes, in any order, digest and wrap the result."""
    result = merge_records((record for outcome in outcomes for record in outcome.records), plan)
    return ResultEnvelope(
        kind=KIND_CAMPAIGN,
        payload=result,
        scenario=plan.scenario,
        plan_digest=digest,
        result_digest=result_digest(result),
        meta=meta,
    )


def _iter_completed(
    tasks: Sequence[ShardTask], backend: ExecutionBackend
) -> Iterator[ShardOutcome]:
    """Yield shard outcomes as they complete on ``backend``.

    ``tasks`` may hold the shards of several campaigns (a matrix sweep
    dispatches every cell's shards as one stream), so their indexes must be
    unique within the list.  A one-shard list and the serial backend run
    inline, so neither ever spins up a pool.  A generator so that only
    *pool* failures trigger the inline fallback: exceptions raised by the
    consumer (store writes, checkpoint hooks, a KeyboardInterrupt) propagate
    out of the ``yield`` and are never mistaken for pool infrastructure
    problems — and closing the generator cancels the queued shards rather than
    running the rest of the work first.  On pool failure, shards already
    yielded are not re-run; the rest execute inline after one
    ``RuntimeWarning`` (shards are pure functions, so the inline run yields
    identical records).
    """
    if _dispatches(tasks, backend):
        done: set[int] = set()
        # Closing the backend's iterator drops shards that have not started;
        # the pool itself stays warm for its owner.
        with closing(backend.iter_shards(tasks)) as stream:
            try:
                for outcome in stream:
                    done.add(outcome.index)
                    yield outcome
                return
            except POOL_FAILURES as failure:
                warnings.warn(
                    f"{backend.name} backend failed ({failure!r}); "
                    f"running {len(tasks) - len(done)} shard(s) inline",
                    RuntimeWarning,
                    stacklevel=2,
                )
        tasks = [task for task in tasks if task.index not in done]
    for task in tasks:
        yield run_shard(task)


class Session:
    """A configured entry point that runs requests.

    Parameters
    ----------
    backend:
        A backend name from the :mod:`repro.api.backends` registry
        (``"serial"``, ``"process"`` or ``"remote"``) or an
        :class:`ExecutionBackend` instance to share.  Named backends
        are created lazily and owned (closed) by the session; instances are
        borrowed and left open.
    max_workers:
        Worker cap for backends the session creates itself.

    Sessions are context managers.  :meth:`run` executes a request on the
    calling thread and returns its envelope.  One session may run many
    requests, and a process session reuses a single warm pool across all of
    them — including across every cell of a matrix sweep.
    """

    def __init__(
        self,
        backend: Union[str, ExecutionBackend] = "process",
        *,
        max_workers: Optional[int] = None,
    ) -> None:
        if isinstance(backend, str) and backend not in backend_names():
            known = ", ".join(backend_names())
            raise MeasurementError(
                f"unknown execution backend {backend!r}; registered: {known}"
            )
        self._backend_spec = backend
        self._backend_name = backend if isinstance(backend, str) else backend.name
        self._owns_backend = isinstance(backend, str)
        self.max_workers = max_workers
        self._backend: Optional[ExecutionBackend] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def backend(self) -> ExecutionBackend:
        """The session's backend, created on first use for named backends."""
        if self._closed:
            raise MeasurementError("session is closed")
        if self._backend is None:
            self._backend = create_backend(self._backend_spec, self.max_workers)
        return self._backend

    def close(self) -> None:
        """Release the owned backend.  Idempotent."""
        self._closed = True
        backend, self._backend = self._backend, None
        if self._owns_backend and backend is not None:
            backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self, request: Request) -> ResultEnvelope:
        """Run ``request`` on the calling thread and return its envelope.

        A campaign's or resume's ``on_checkpoint(outcome, completed,
        total)`` is the one progress hook, called on this thread after each
        durable shard.  An exception it raises, or a KeyboardInterrupt,
        closes the shard stream — the batches that have not started are
        dropped — and propagates from here; a store keeps its durable
        shards, so a :class:`ResumeRequest` finishes the campaign later.
        """
        if self._closed:
            raise MeasurementError("session is closed")
        if isinstance(request, ProbeRequest):
            return self._run_probe(request)
        if isinstance(request, CampaignRequest):
            plan = request.normalized()
            store = None if request.store is None else as_store(request.store, create=True)
            return self._run_campaign(plan, store, request.resume, request.on_checkpoint)
        if isinstance(request, ResumeRequest):
            store = as_store(request.store, create=False)
            return self._run_campaign(store.plan(), store, True, request.on_checkpoint)
        if isinstance(request, MatrixRequest):
            return self._run_matrix(request)
        raise MeasurementError(
            f"unsupported request type: {type(request).__name__} "
            "(expected ProbeRequest, CampaignRequest, MatrixRequest, or ResumeRequest)"
        )

    def _run_probe(self, request: ProbeRequest) -> ResultEnvelope:
        spec = request.host_spec()
        testbed = build_testbed([spec], seed=request.seed)
        prober = Prober(
            testbed.probe,
            remote_port=request.remote_port,
            samples_per_measurement=request.samples,
        )
        reports: dict = {}
        try:
            for test in request.tests:
                reports[test] = prober.run(
                    test, spec.address, num_samples=request.samples, spacing=request.spacing
                )
        finally:
            testbed.close()
        signature = tuple(_probe_signature(report) for report in reports.values())
        return ResultEnvelope(
            kind=KIND_PROBE,
            payload=reports,
            scenario=None,
            plan_digest=None,
            result_digest=hashlib.sha256(repr(signature).encode()).hexdigest(),
            meta={
                "seed": request.seed,
                "samples": request.samples,
                "host": spec.name,
                "backend": self._backend_name,
            },
        )

    def _run_campaign(
        self,
        plan: CampaignPlan,
        store: Optional[CampaignStore],
        resume: bool,
        on_checkpoint: Optional[CheckpointHook],
    ) -> ResultEnvelope:
        """One campaign's shards as a completion-order stream on the backend.

        With a store, shards it already holds are read back instead of
        re-executed, and each fresh shard is durable before its checkpoint
        hook runs — so a crash, or an exception from the hook, at any shard
        boundary leaves a store that resumes to the same digest.
        """
        tasks = plan.shard_tasks()
        total = len(tasks)
        digest = plan_digest(plan)  # first, so a value no codec carries fails before any shard
        durable: frozenset[int] = frozenset()
        if store is not None:
            durable = store.begin(plan, resume=resume)
            tasks = [task for task in tasks if task.index not in durable]
        fresh: list[ShardOutcome] = []
        with closing(_iter_completed(tasks, self.backend)) as stream:
            for outcome in stream:
                if store is not None:
                    store.write_shard(outcome)
                fresh.append(outcome)
                if on_checkpoint is not None:
                    # With a store, the count includes every durable shard, so
                    # a resumed run picks up where the interrupted one stopped.
                    on_checkpoint(outcome, len(durable) + len(fresh), total)
        # Shards executed this run merge from memory; only previously durable
        # shards are read back (the codec is lossless, so both sources yield
        # signature-identical records).
        outcomes = [store.read_shard(index) for index in sorted(durable)] + fresh
        meta: dict[str, Any] = {
            "seed": plan.seed,
            "shards": plan.shards,
            "hosts": len(plan.specs),
            "resumed": resume,
            "store": str(store.root) if store is not None else None,
            "backend": self._backend_name,
        }
        # A fault-tolerant backend (the remote pool) accumulates a per-job
        # report — requeues, evictions, quarantined shards, degradation
        # warnings — which surfaces here rather than in logs: callers read
        # envelope.meta["remote"] (and meta["warnings"]) to learn what the
        # campaign survived.  A campaign whose shards ran inline (one shard,
        # or a resume with every shard durable) gave the backend no job, so
        # the report there belongs to someone else.
        reporter = getattr(self.backend, "pop_job_report", None)
        if _dispatches(tasks, self.backend) and callable(reporter):
            report = reporter()
            if report:
                meta["remote"] = report
                if report.get("warnings"):
                    meta["warnings"] = tuple(report["warnings"])
        return _campaign_envelope(plan, digest, outcomes, meta)

    def _run_matrix(self, request: MatrixRequest) -> ResultEnvelope:
        """Every cell's shards as one completion-order stream on the backend.

        Each cell keeps its own plan, shard layout, and merge; only the
        shard indexes run on across cells, so one dispatch carries them all
        and no worker idles at a cell boundary.  A cell is merged and
        digested as soon as its last shard lands, so that work overlaps the
        shards still running; an exception at that boundary (or a
        KeyboardInterrupt) closes the stream, which drops the batches that
        have not started.
        """
        plans = request.normalized()
        tasks: list[ShardTask] = []
        owner: dict[int, int] = {}  # shard index -> cell position
        unfinished: dict[int, int] = {}  # cell position -> shards still out
        for position, plan in enumerate(plans):
            cell_tasks = plan.shard_tasks(first_index=len(tasks))
            owner.update((task.index, position) for task in cell_tasks)
            unfinished[position] = len(cell_tasks)
            tasks.extend(cell_tasks)
        outcomes: list[list[ShardOutcome]] = [[] for _ in plans]
        children: dict[int, ResultEnvelope] = {}  # cell position -> its envelope

        def finish(position: int) -> None:
            del unfinished[position]
            plan = plans[position]
            meta = {"seed": plan.seed, "shards": plan.shards, "backend": self._backend_name}
            children[position] = _campaign_envelope(
                plan, plan_digest(plan), outcomes[position], meta
            )

        with closing(_iter_completed(tasks, self.backend)) as stream:
            for outcome in stream:
                position = owner[outcome.index]
                outcomes[position].append(outcome)
                unfinished[position] -= 1
                if not unfinished[position]:
                    finish(position)
        # A shard the remote backend quarantined never lands; its cell is
        # as complete as it will get once the stream ends.
        for position in sorted(unfinished):
            finish(position)
        envelopes = tuple(children[position] for position in range(len(plans)))
        cell_digests = tuple(
            sorted((child.scenario or "", child.result_digest or "") for child in envelopes)
        )
        return ResultEnvelope(
            kind=KIND_MATRIX,
            payload=MatrixResult(runs={child.scenario: child.payload for child in envelopes}),
            scenario=None,
            plan_digest=None,
            result_digest=hashlib.sha256(repr(cell_digests).encode()).hexdigest(),
            meta={
                "seed": request.seed,
                "cells": len(plans),
                "backend": self._backend_name,
            },
            children=envelopes,
        )


__all__ = ["Session"]
