"""Sharded campaigns: the survey at scale.

The paper's 20-day survey (§IV-B) cycled four measurement techniques over
dozens of hosts from a single vantage point.  :class:`repro.core.campaign.Campaign`
reproduces that faithfully — one simulator, one probe host, hosts visited in
sequence — which also makes it the scaling bottleneck: a single event loop on
a single core bounds how large a survey can get.

:class:`CampaignPlan` removes that bound.  It is the one description of a
campaign, kept verbatim in a durable store's manifest: it partitions the host
spec list into independent shards and turns each into a self-contained
:class:`ShardTask` (run by :func:`run_shard`, which builds the shard its own
:class:`~repro.sim.simulator.Simulator`,
:class:`~repro.host.raw_socket.ProbeHost`, and
:class:`~repro.core.prober.Prober`), and :func:`merge_records` merges the
per-shard records against it into one
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
from typing import Callable, Iterable, Optional

from repro.core.campaign import Campaign, CampaignConfig, CampaignResult, HostRoundResult
from repro.core.prober import TestName
from repro.net.errors import MeasurementError
from repro.workloads.population import partition_specs
from repro.workloads.testbed import HostSpec, build_testbed

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


@dataclass(frozen=True, slots=True)
class CampaignPlan:
    """A campaign: everything that fixes its merged dataset, host specs included.

    A request normalizes to a plan, a store keeps one in its manifest, and a
    :class:`repro.api.Session` runs one by taking :meth:`shard_tasks` through
    its execution backend and merging the outcomes with
    :func:`merge_records`.  Two runs with equal plans produce bit-identical
    merged signatures, which is why resume refuses a plan that differs from
    the stored one, and why a resume needs only the store.

    ``seed`` is the base seed of every shard testbed: with stable per-site
    seeding the merged result is a pure function of the plan (see the module
    docstring), whatever backend and worker count run the shards.
    ``scenario`` is stamped on every record and on the merged result, so
    sweep datasets stay self-describing.
    """

    seed: int
    shards: int
    remote_port: int
    scenario: Optional[str]
    tests: tuple[TestName, ...]
    config: CampaignConfig
    specs: tuple[HostSpec, ...]

    def __post_init__(self) -> None:
        # Checked on construction, so a plan decoded from a manifest meets
        # the same rules as one built from a request.
        if not self.specs:
            raise MeasurementError("campaign plan requires at least one host spec")
        if not 1 <= self.shards <= len(self.specs):
            raise MeasurementError(
                f"campaign plan shards must be in [1, {len(self.specs)}], its host count: "
                f"{self.shards}"
            )
        if not 0 <= self.seed < 2**64:
            raise MeasurementError(f"campaign seed must be in [0, 2**64): {self.seed}")
        if not 1 <= self.remote_port <= 65535:
            raise MeasurementError(f"campaign remote port must be in [1, 65535]: {self.remote_port}")

    @classmethod
    def of(
        cls,
        specs: Iterable[HostSpec],
        config: Optional[CampaignConfig] = None,
        *,
        seed: int = 1,
        remote_port: int = 80,
        shards: int = 1,
        scenario: Optional[str] = None,
        tests: Optional[Iterable[TestName]] = None,
    ) -> "CampaignPlan":
        """The plan of a campaign over ``specs``.  Shards beyond the host
        count are dropped rather than left empty, and ``tests`` defaults to
        the config's cycle."""
        hosts = tuple(specs)
        config = config or CampaignConfig()
        return cls(
            seed=seed,
            shards=min(shards, len(hosts)),
            remote_port=remote_port,
            scenario=scenario,
            tests=config.tests if tests is None else tuple(tests),
            config=config,
            specs=hosts,
        )

    @property
    def host_addresses(self) -> tuple[int, ...]:
        """Addresses of the whole population, in spec order."""
        return tuple(spec.address for spec in self.specs)

    def shard_tasks(self, *, first_index: int = 0) -> list[ShardTask]:
        """This campaign's shard work orders, indexed from ``first_index``.

        A matrix sweep numbers each cell's shards on from the previous
        cell's, so one dispatch can carry every cell; the index only names a
        shard and never affects what it measures.
        """
        return [
            ShardTask(
                index=first_index + offset,
                specs=tuple(shard),
                config=self.config,
                tests=self.tests,
                seed=self.seed,
                remote_port=self.remote_port,
                scenario=self.scenario,
            )
            for offset, shard in enumerate(partition_specs(self.specs, self.shards))
        ]


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


def merge_records(records: Iterable[HostRoundResult], plan: CampaignPlan) -> CampaignResult:
    """Merge ``plan``'s shard records into one result in canonical round-robin order.

    The canonical order is the exact sequence the serial Campaign visits
    (round, then host in spec order, then test in cycle order), so merged
    output is independent of shard completion order — and of whether the
    records came straight from workers or back out of a
    :class:`~repro.store.store.CampaignStore`.
    """
    host_addresses = plan.host_addresses
    host_order = {address: index for index, address in enumerate(host_addresses)}
    test_order = {test: index for index, test in enumerate(plan.tests)}
    ordered = sorted(
        records,
        key=lambda record: (
            record.round_index,
            host_order[record.host_address],
            test_order[record.test],
        ),
    )
    result = CampaignResult(
        config=plan.config, host_addresses=host_addresses, scenario=plan.scenario
    )
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

