"""The lease book as a state machine: no interleaving can cook the books.

:class:`~repro.distributed.leases.LeaseBook` makes every decision of the
remote coordinator with no sockets, threads or clock, so Hypothesis drives
it through interleavings that real workers over loopback rarely hit: workers
join, beat, go silent, are evicted and leave; jobs start, each finishing the
one before; grants go out; results carry any subset of what a lease owes
(plus indexes it never owed), or fail to decode; shard errors arrive; the
backend takes the rest over.  Batches of finished jobs stay in the pool the
rules draw from, so stale frames arrive all the time.

The machine keeps its own model of which leases are open and what each
still owes, and checks every step against it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.runner import CampaignPlan, ShardOutcome
from repro.distributed.leases import (
    BACKOFF_CAP,
    DONE,
    GRANT,
    JOB_DONE,
    JOB_STRANDED,
    LEASED,
    LOCAL,
    QUARANTINED,
    QUEUED,
    TRANSITIONS,
    LeaseBook,
)
from repro.net.errors import MeasurementError
from repro.scenarios import build_scenario_hosts, get_scenario
from test_golden_signatures import GOLDEN_CONFIG

MAX_ATTEMPTS = 3
LEASE_TIMEOUT = 1.0
MAX_SHARDS = 6
#: Samples per shard: no estimate, then costs whose floor of
#: ``MIN_BATCH_SAMPLES`` (64) makes batches of at least 1, 2 and 3 shards.
SHARD_COSTS = (None, 64, 32, 22)

_SCENARIO = get_scenario("nat-timeout").with_population(num_hosts=1)
(_TASK,) = CampaignPlan.of(
    build_scenario_hosts(_SCENARIO, seed=5), GOLDEN_CONFIG, shards=1
).shard_tasks()


class LeaseBookMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.book = LeaseBook(lease_timeout=LEASE_TIMEOUT, max_attempts=MAX_ATTEMPTS)
        self.now = 0.0
        self.next_uid = 0
        self.serial = 0  # jobs started; a job's tasks and outcomes carry its serial
        self.job = None
        self.finished = []  # (job, its shard snapshot when it finished)
        self.batches = []  # (uid, batch, serial) for every grant ever made
        self.open = {}  # the current job's open leases: batch id -> (uid, owed)
        self.served = set()  # names of the workers the current job granted
        self.delivered = set()
        self.done = 0

    # ------------------------------------------------------------------ #
    # Model helpers
    # ------------------------------------------------------------------ #

    def _snapshot(self, job=None) -> dict:
        shards = (job or self.job).shards
        return {index: (shard.state, shard.attempts) for index, shard in shards.items()}

    def _draw_batch(self, data) -> tuple:
        """Half the time a batch some worker is still running (from any job),
        as a real worker reports; else any batch ever granted."""
        running = [
            (uid, batch, serial)
            for uid, batch, serial in self.batches
            if uid in self.book.workers and self.book.workers[uid].batch == batch.batch_id
        ]
        pool = running if running and data.draw(st.booleans()) else self.batches
        return data.draw(st.sampled_from(pool))

    def _check_moves(self, before: dict, what: str, delivered=(), requeued=()) -> None:
        after = self._snapshot()
        for index, (state, attempts) in before.items():
            if index in delivered:
                assert after[index] == (DONE, attempts), f"{what}: shard {index} not done"
            elif index in requeued:
                moved, tried = after[index]
                assert tried == attempts + 1, f"{what}: shard {index} cost no attempt"
                assert moved in (QUEUED, QUARANTINED)
                if moved == QUEUED:
                    not_before = self.job.shards[index].not_before
                    assert self.now < not_before <= self.now + BACKOFF_CAP
            else:
                assert after[index] == (state, attempts), f"{what} changed shard {index}"

    # ------------------------------------------------------------------ #
    # Workers and the clock
    # ------------------------------------------------------------------ #

    @initialize(
        workers=st.integers(1, 3),
        shards=st.integers(1, MAX_SHARDS),
        shard_cost=st.sampled_from(SHARD_COSTS),
    )
    def fleet_serving_a_job(self, workers: int, shards: int, shard_cost) -> None:
        for _ in range(workers):
            self.join()
        self.start(shards, shard_cost)
        self.grant()

    @rule()
    def join(self) -> None:
        self.book.join(self.next_uid, f"worker-{self.next_uid}", self.now)
        self.next_uid += 1

    @precondition(lambda self: self.book.workers)
    @rule(data=st.data())
    def beat(self, data) -> None:
        self.book.beat(data.draw(st.sampled_from(sorted(self.book.workers))), self.now)

    @precondition(lambda self: self.book.workers)
    @rule(data=st.data())
    def leave(self, data) -> None:
        uid = data.draw(st.sampled_from(sorted(self.book.workers)))
        held = [batch for batch, (holder, _) in self.open.items() if holder == uid]
        owed = set().union(*(self.open.pop(batch)[1] for batch in held))
        before = self._snapshot()
        self.book.leave(uid, self.now)
        self._check_moves(before, "a departure", requeued=owed)

    @rule(seconds=st.sampled_from((0.01, 0.1, 0.6, 1.5)))
    def tick_and_expire(self, seconds: float) -> None:
        self.now += seconds
        silent = {
            uid
            for uid, worker in self.book.workers.items()
            if worker.batch is not None
            and not worker.evicted
            and self.now - worker.last_beat > LEASE_TIMEOUT
        }
        before = self._snapshot()
        assert set(self.book.expire(self.now)) == silent
        assert all(self.book.workers[uid].evicted for uid in silent)
        self._check_moves(before, "an eviction")

    # ------------------------------------------------------------------ #
    # Jobs and frames
    # ------------------------------------------------------------------ #

    @rule(shards=st.integers(0, MAX_SHARDS), shard_cost=st.sampled_from(SHARD_COSTS))
    def start(self, shards: int, shard_cost) -> None:
        if self.job is not None:
            report = self.book.finish(self.job)
            quarantined = sorted(entry["shard"] for entry in report["quarantined"])
            snapshot = self._snapshot()
            assert quarantined == sorted(
                index for index, (state, _) in snapshot.items() if state == QUARANTINED
            )
            assert all(entry["attempts"] == MAX_ATTEMPTS for entry in report["quarantined"])
            assert report["workers"] == sorted(self.served)
            self.finished.append((self.job, snapshot))
        self.serial += 1
        tasks = [replace(_TASK, index=index, seed=self.serial) for index in range(shards)]
        self.job = self.book.start(tasks, shard_cost)
        self.open, self.served, self.delivered, self.done = {}, set(), set(), 0

    @rule()
    def grant(self) -> None:
        workers = {uid: (w.batch, w.evicted, w.name) for uid, w in self.book.workers.items()}
        ready = {
            index
            for index, shard in self.job.shards.items()
            if shard.state == QUEUED and shard.not_before <= self.now
        }
        before = self._snapshot()
        grants = self.book.grant(self.now)
        granted = set()
        for uid, batch in grants:
            busy, evicted, name = workers[uid]
            assert busy is None, "a busy worker got a second batch"
            assert not evicted, "an evicted worker got a grant"
            indexes = {task.index for task in batch.tasks}
            assert indexes and indexes <= ready - granted
            assert {task.seed for task in batch.tasks} == {self.serial}
            granted |= indexes
            self.batches.append((uid, batch, self.serial))
            self.open[batch.batch_id] = (uid, indexes)
            self.served.add(name)
        after = self._snapshot()
        for index, (state, attempts) in before.items():
            moved = TRANSITIONS[state, GRANT] if index in granted else state
            assert after[index] == (moved, attempts)
        idle = [uid for uid, (busy, evicted, _) in workers.items() if busy is None and not evicted]
        if len(grants) < len(idle):
            assert ready == granted, "an idle worker was left idle beside ready shards"

    @precondition(lambda self: self.batches)
    @rule(data=st.data())
    def result(self, data) -> None:
        uid, batch, serial = self._draw_batch(data)
        owed = set(self.open[batch.batch_id][1]) if batch.batch_id in self.open else None
        # None is a blob that did not decode; a list may lack owed shards and
        # carry shards the lease never owed.
        carried = data.draw(st.none() | st.lists(st.integers(0, MAX_SHARDS - 1), unique=True))
        outcomes = (
            None
            if carried is None
            else [ShardOutcome(index, (serial,), []) for index in carried]
        )
        before = self._snapshot()
        self.book.result(uid, batch.batch_id, outcomes, "transport fault: garbled", self.now)
        if owed is None:
            self._check_moves(before, "a foreign batch's outcome")
            return
        del self.open[batch.batch_id]
        delivered = owed & set(carried or ())
        self._check_moves(before, "a result", delivered, owed - delivered)

    @precondition(lambda self: self.batches)
    @rule(data=st.data())
    def shard_error(self, data) -> None:
        uid, batch, _ = self._draw_batch(data)
        failed = data.draw(
            st.lists(st.sampled_from([task.index for task in batch.tasks]), unique=True)
        )
        owed = self.open[batch.batch_id][1] if batch.batch_id in self.open else set()
        requeued = owed & set(failed)
        before = self._snapshot()
        self.book.shard_errors(
            uid, batch.batch_id, [(index, "poisoned") for index in failed], self.now
        )
        what = "a shard error" if batch.batch_id in self.open else "a foreign batch's shard error"
        owed -= requeued
        self._check_moves(before, what, requeued=requeued)

    @rule()
    def takeover(self) -> None:
        unsettled = sorted(
            index
            for index, shard in self.job.shards.items()
            if shard.state in (QUEUED, LEASED)
        )
        claimed = self.book.takeover()
        assert [task.index for task in claimed] == unsettled
        assert all(self.job.shards[index].state == LOCAL for index in unsettled)
        self.open = {}

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def the_job_is_attached_until_it_finishes(self) -> None:
        assert self.book.job is self.job
        for job, snapshot in self.finished:
            assert job.results.empty(), "a finished job's queue grew"
            assert self._snapshot(job) == snapshot, "a finished job's shard moved"

    @invariant()
    def outstanding_counts_queued_and_leased_shards(self) -> None:
        live = [s for s in self.job.shards.values() if s.state in (QUEUED, LEASED)]
        assert self.job.outstanding == len(live)

    @invariant()
    def leases_are_exclusive_and_match_the_model(self) -> None:
        held = [w.batch for w in self.book.workers.values() if w.batch is not None]
        assert len(held) == len(set(held)), "a batch is held by two workers"
        assert self.job.leases == {batch: owed for batch, (_, owed) in self.open.items()}
        leased = [index for owed in self.job.leases.values() for index in owed]
        assert len(leased) == len(set(leased)), "a shard sits in two open leases"
        assert set(leased) == {i for i, s in self.job.shards.items() if s.state == LEASED}
        for batch, (uid, _) in self.open.items():
            assert self.book.workers[uid].batch == batch

    @invariant()
    def attempts_and_backoff_are_bounded(self) -> None:
        for shard in self.job.shards.values():
            assert shard.attempts <= MAX_ATTEMPTS
            assert (shard.state == QUARANTINED) == (shard.attempts == MAX_ATTEMPTS)
            assert shard.not_before <= self.now + BACKOFF_CAP

    @invariant()
    def each_outcome_lands_once_then_job_done_once(self) -> None:
        while not self.job.results.empty():
            item = self.job.results.get_nowait()
            assert not self.done, "the queue grew after JOB_DONE"
            if item is JOB_DONE:
                self.done += 1
            elif item is JOB_STRANDED:
                assert not self.book.workers and self.job.outstanding
            else:
                assert item.host_addresses == (self.serial,), (
                    f"a foreign batch's outcome reached job {self.serial}: {item}"
                )
                assert item.index not in self.delivered, f"shard {item.index} landed twice"
                assert self.job.shards[item.index].state == DONE
                self.delivered.add(item.index)
        assert self.done == (self.job.outstanding == 0)


LeaseBookMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestLeaseBookMachine = LeaseBookMachine.TestCase


def test_an_illegal_shard_move_raises():
    book = LeaseBook(lease_timeout=LEASE_TIMEOUT, max_attempts=MAX_ATTEMPTS)
    job = book.start([replace(_TASK, index=0)], None)
    book.takeover()
    assert job.results.get_nowait() is JOB_DONE
    with pytest.raises(MeasurementError, match="no 'grant' move from 'local'"):
        book._move(job, 0, GRANT)
