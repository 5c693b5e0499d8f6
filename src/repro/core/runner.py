"""Sharded campaigns: the survey at scale.

The paper's 20-day survey (§IV-B) cycled four measurement techniques over
dozens of hosts from a single vantage point.  :class:`repro.core.campaign.Campaign`
reproduces that faithfully — one simulator, one probe host, hosts visited in
sequence — which also makes it the scaling bottleneck: a single event loop on
a single core bounds how large a survey can get.

:class:`CampaignRunner` removes that bound.  It is a campaign's *shard plan*:
it partitions the host spec list into independent shards, turns each into a
self-contained :class:`ShardTask` (run by :func:`run_shard`, which builds the
shard its own :class:`~repro.sim.simulator.Simulator`,
:class:`~repro.host.raw_socket.ProbeHost`, and
:class:`~repro.core.prober.Prober`), describes the campaign to a durable store,
and merges the per-shard records into one
:class:`~repro.core.campaign.CampaignResult` in canonical round-robin order.
Executing the tasks is the :class:`repro.api.Session`'s job: it streams them
through its execution backend and checkpoints each one as it completes.

Determinism
-----------
Shard testbeds are built with ``stable_site_seeds=True``, so every site's
random stream is derived from ``(seed, site name)`` alone — independent of
which shard the site lands in or how many shards exist.  Two guarantees
follow:

* **Fixed layout is fully reproducible.**  For a given
  ``(specs, config, seed, tests, shards)`` the merged dataset is identical
  across runs, backends (serial / process / remote), and worker counts.
* **Shard count doesn't change measurements** for sites whose behaviour
  depends only on their own path and stack — i.e. every site *not* behind a
  port-hashing middlebox and *not* on a time-varying path.  The merged
  result then matches the serial campaign's records modulo simulated
  timestamps (each shard's clock starts at zero) and packet uids.  Two
  exception classes exist.  Sites behind a transparent load balancer:
  backend selection hashes ephemeral ports, and the probe's port sequence
  depends on shard composition, so an LB site may flip backends when the
  layout changes — exactly as it would between reruns of the real survey.
  Sites on time-varying paths (diurnal congestion cycles, scheduled route
  flaps, clocked loss episodes — anything where
  :meth:`repro.scenarios.NetworkScenario.is_time_varying` is true): shard
  composition determines *when* in simulated time each host is visited, and
  a path that answers differently at different times of day measures
  differently.  ``docs/architecture.md`` ("The sharded campaign runner")
  spells this out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.core.campaign import Campaign, CampaignConfig, CampaignResult, HostRoundResult
from repro.core.prober import TestName
from repro.net.errors import MeasurementError
from repro.workloads.population import partition_specs
from repro.workloads.testbed import HostSpec, build_testbed

if TYPE_CHECKING:  # pragma: no cover - type-only import (the store sits above core)
    from repro.store.store import CampaignPlan

CheckpointHook = Callable[["ShardOutcome", int, int], None]
"""Called after each shard becomes durable: ``(outcome, completed, total)``."""

EXECUTOR_PROCESS = "process"
EXECUTOR_SERIAL = "serial"


@dataclass(frozen=True, slots=True)
class ShardTask:
    """One shard's complete, self-contained work order.

    Everything a worker needs to rebuild its slice of the world travels in
    this plain-data object (sent by its :mod:`repro.core.schema` table over
    a socket), so a shard can run in another process as easily as inline.
    """

    index: int
    specs: tuple[HostSpec, ...]
    config: CampaignConfig
    tests: Optional[tuple[TestName, ...]]
    seed: int
    remote_port: int
    scenario: Optional[str] = None
    """Scenario identity the shard's records are stamped with, so a sweep's
    merged datasets stay self-describing no matter which worker produced
    them."""


@dataclass(slots=True)
class ShardOutcome:
    """What one shard measured."""

    index: int
    host_addresses: tuple[int, ...]
    records: list[HostRoundResult]


def record_signature(record: HostRoundResult) -> tuple:
    """The measurement content of a record, free of run-local bookkeeping.

    Two campaign runs measured the same thing exactly when their records have
    equal signatures.  The signature keeps everything the analysis layer
    consumes — round, host, test, scenario identity, error text, eligibility,
    and every sample's per-direction outcome and spacing — and drops the two things that are
    artifacts of *where* the record was produced: simulated timestamps (each
    shard's clock starts at zero) and packet uids (a process-wide counter,
    never an on-the-wire field).
    """
    report = record.report
    samples: tuple = ()
    if report.result is not None:
        # ``_value_`` is what an enum's ``value`` property returns, minus its frames.
        samples = tuple([
            (sample.index, sample.forward._value_, sample.reverse._value_, sample.spacing)
            for sample in report.result.samples
        ])
    return (
        record.round_index,
        record.host_address,
        record.test._value_,
        record.scenario or "",
        report.error or "",
        report.ineligible,
        samples,
    )


def result_signature(result: CampaignResult) -> tuple:
    """Order-independent signature of a whole campaign dataset."""
    return tuple(sorted(record_signature(record) for record in result.records))


def result_digest(result: CampaignResult) -> str:
    """sha256 hex digest of :func:`result_signature`.

    This is the compact form the golden-signature tests pin and the CLI /
    CI resume-smoke job compare: two campaigns measured the same thing
    exactly when their digests match.
    """
    return signature_digest(map(record_signature, result.records))


def signature_digest(signatures: Iterable[tuple]) -> str:
    """sha256 hex digest of record signatures taken in sorted order.

    The one digest formula: :func:`result_digest` feeds it a result's
    records, and ``python -m repro report`` a store's, as it streams them.
    """
    return hashlib.sha256(repr(tuple(sorted(signatures))).encode()).hexdigest()


def merge_records(
    records: Iterable[HostRoundResult],
    *,
    config: CampaignConfig,
    host_addresses: tuple[int, ...],
    tests: tuple[TestName, ...],
    scenario: Optional[str],
) -> CampaignResult:
    """Merge shard records into one result in canonical round-robin order.

    The canonical order is the exact sequence the serial Campaign visits
    (round, then host in spec order, then test in cycle order), so merged
    output is independent of shard completion order — and of whether the
    records came straight from workers or back out of a
    :class:`~repro.store.store.CampaignStore`.
    """
    host_order = {address: index for index, address in enumerate(host_addresses)}
    test_order = {test: index for index, test in enumerate(tests)}
    ordered = sorted(
        records,
        key=lambda record: (
            record.round_index,
            host_order[record.host_address],
            test_order[record.test],
        ),
    )
    result = CampaignResult(config=config, host_addresses=host_addresses, scenario=scenario)
    result.extend(ordered)
    return result


def run_shard(task: ShardTask) -> ShardOutcome:
    """Build one shard's testbed and run its campaign to completion.

    Module-level (rather than a method) so :class:`ShardTask` instances can be
    shipped to :class:`~concurrent.futures.ProcessPoolExecutor` workers.  The
    records carry packet uids, never packets, so the testbed is closed as
    soon as the campaign returns and the shard's packets are freed here.
    """
    testbed = build_testbed(list(task.specs), seed=task.seed, stable_site_seeds=True)
    try:
        campaign = Campaign(
            testbed.probe,
            testbed.addresses(),
            task.config,
            remote_port=task.remote_port,
            scenario=task.scenario,
        )
        result = campaign.run(task.tests)
    finally:
        testbed.close()
    return ShardOutcome(
        index=task.index,
        host_addresses=result.host_addresses,
        records=result.records,
    )


class CampaignRunner:
    """A campaign's shard plan: partition, work orders, store plan, and merge.

    The runner executes nothing itself.  A :class:`repro.api.Session` runs a
    campaign by taking :meth:`shard_tasks` through its execution backend,
    checkpointing each outcome against :meth:`plan` when a store is given,
    and folding the outcomes back together with :meth:`merge`.

    Parameters
    ----------
    specs:
        Host specs for the whole population (e.g. from
        :func:`repro.workloads.population.generate_population`).
    config:
        Campaign schedule, shared by every shard.
    seed:
        Base seed for every shard testbed.  Combined with stable per-site
        seeding, this makes the merged result a pure function of
        ``(specs, config, seed, tests, shards)``; the backend that runs the
        shards and its worker count change wall-clock time, never records.
        Shard *count* is also irrelevant to the records except for sites
        behind port-hashing load balancers (see the module docstring's
        determinism notes).  It must fit the u64 every codec sends it as.
    shards:
        Number of partitions.  Shards beyond ``len(specs)`` are dropped
        rather than left empty.
    scenario:
        Optional scenario name stamped on every record and on the merged
        result, so sweep datasets remain self-describing (the scenario layer
        in :mod:`repro.scenarios` sets this automatically).
    """

    def __init__(
        self,
        specs: Sequence[HostSpec],
        config: Optional[CampaignConfig] = None,
        *,
        seed: int = 1,
        remote_port: int = 80,
        shards: int = 1,
        scenario: Optional[str] = None,
    ) -> None:
        if not specs:
            raise MeasurementError("campaign runner requires at least one host spec")
        if shards < 1:
            raise MeasurementError(f"campaign runner needs at least one shard: {shards}")
        if not 0 <= seed < 2**64:
            raise MeasurementError(f"campaign seed must be in [0, 2**64): {seed}")
        self.specs = tuple(specs)
        self.config = config or CampaignConfig()
        self.seed = seed
        self.remote_port = remote_port
        self.shards = shards
        self.scenario = scenario

    @property
    def host_addresses(self) -> tuple[int, ...]:
        """Addresses of the whole population, in spec order."""
        return tuple(spec.address for spec in self.specs)

    def shard_plan(self) -> list[list[HostSpec]]:
        """The partitions the runner will execute, in order."""
        return partition_specs(self.specs, self.shards)

    def plan(self, tests: Optional[Iterable[TestName]] = None) -> "CampaignPlan":
        """The durable-store plan describing exactly this runner's campaign,
        host specs included, so a resume needs nothing but the store."""
        from repro.store.store import CampaignPlan

        return CampaignPlan(
            seed=self.seed,
            shards=len(self.shard_plan()),
            remote_port=self.remote_port,
            scenario=self.scenario,
            tests=self._active_tests(tests),
            config=self.config,
            specs=self.specs,
        )

    def shard_tasks(
        self, tests: Optional[Iterable[TestName]] = None, *, first_index: int = 0
    ) -> list[ShardTask]:
        """This campaign's shard work orders, indexed from ``first_index``.

        A matrix sweep numbers each cell's shards on from the previous
        cell's, so one dispatch can carry every cell; the index only names a
        shard and never affects what it measures.
        """
        active_tests = self._active_tests(tests)
        return [
            ShardTask(
                index=first_index + offset,
                specs=tuple(shard),
                config=self.config,
                tests=active_tests,
                seed=self.seed,
                remote_port=self.remote_port,
                scenario=self.scenario,
            )
            for offset, shard in enumerate(self.shard_plan())
        ]

    def merge(
        self,
        outcomes: Iterable[ShardOutcome],
        tests: Optional[Iterable[TestName]] = None,
    ) -> CampaignResult:
        """Merge this campaign's shard outcomes, in any order, into one result."""
        return merge_records(
            (record for outcome in outcomes for record in outcome.records),
            config=self.config,
            host_addresses=self.host_addresses,
            tests=self._active_tests(tests),
            scenario=self.scenario,
        )

    def _active_tests(self, tests: Optional[Iterable[TestName]]) -> tuple[TestName, ...]:
        return tuple(tests) if tests is not None else self.config.tests
