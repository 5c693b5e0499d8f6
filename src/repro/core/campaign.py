"""Round-robin measurement campaigns (the paper's 20-day survey, §IV-B).

A campaign repeatedly cycles through a set of hosts, running the configured
techniques against each, with idle gaps between measurements.  The resulting
dataset is what the analysis layer turns into the Figure 5 CDF, the Figure 6
per-host time series, the eligibility table, and the pairwise-agreement
statistics.

:class:`Campaign` here is the single-simulator engine: one event loop, one
probe host, hosts visited strictly in sequence.  Survey-scale runs follow
a :class:`repro.core.runner.CampaignPlan`, which partitions the host list
into shards whose ``Campaign`` s each run on their own simulator
(optionally in parallel worker processes, via a :class:`repro.api.Session`)
and whose shard records merge back into one :class:`CampaignResult`.  The
layering and the determinism guarantees are documented in
``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.prober import ProbeReport, Prober, TestName
from repro.host.raw_socket import ProbeHost
from repro.net.errors import MeasurementError


@dataclass(slots=True)
class CampaignConfig:
    """Configuration of a measurement campaign."""

    rounds: int = 10
    samples_per_measurement: int = 15
    tests: tuple[TestName, ...] = TestName.all()
    inter_measurement_gap: float = 1.0
    inter_round_gap: float = 10.0
    spacing: float = 0.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise MeasurementError(f"campaign needs at least one round: {self.rounds}")
        if self.samples_per_measurement < 1:
            raise MeasurementError(
                f"campaign needs at least one sample per measurement: {self.samples_per_measurement}"
            )


@dataclass(slots=True)
class HostRoundResult:
    """One (round, host, test) measurement within a campaign."""

    round_index: int
    host_address: int
    test: TestName
    time: float
    report: ProbeReport
    scenario: Optional[str] = None
    """Name of the scenario this measurement ran under, if any.  Stamped by
    the campaign so records stay self-describing after shard merges and
    cross-scenario analysis slicing."""


@dataclass(slots=True)
class CampaignResult:
    """Everything a campaign measured: the merged, insertion-ordered record
    list.  The survey tables are views of one
    :class:`~repro.analysis.streaming.StreamingSurvey` pass over ``records``.
    """

    config: CampaignConfig
    host_addresses: tuple[int, ...]
    records: list[HostRoundResult] = field(default_factory=list)
    scenario: Optional[str] = None
    """Scenario identity of the whole dataset (None for ad-hoc campaigns)."""

    def add(self, record: HostRoundResult) -> None:
        """Append one measurement record."""
        self.records.append(record)

    def extend(self, records: Iterable[HostRoundResult]) -> None:
        """Append many measurement records (e.g. one shard's output)."""
        self.records.extend(records)


class Campaign:
    """Runs a round-robin campaign against a set of remote hosts."""

    def __init__(
        self,
        probe: ProbeHost,
        host_addresses: Sequence[int],
        config: Optional[CampaignConfig] = None,
        remote_port: int = 80,
        scenario: Optional[str] = None,
    ) -> None:
        if not host_addresses:
            raise MeasurementError("campaign requires at least one host")
        self.probe = probe
        self.host_addresses = tuple(host_addresses)
        self.config = config or CampaignConfig()
        self.scenario = scenario
        self.prober = Prober(
            probe,
            remote_port=remote_port,
            samples_per_measurement=self.config.samples_per_measurement,
        )

    def run(self, tests: Optional[Iterable[TestName]] = None) -> CampaignResult:
        """Execute the campaign and return the full record set.

        The per-measurement loop runs once per (round, host, test) cell —
        tens of thousands of iterations for a large shard — so everything
        invariant across cells (config fields, bound methods, the flattened
        round-robin visit order) is hoisted out of it; the loop body itself
        does only the probe, the record append, and the inter-measurement
        gap.  Visit order is unchanged, so records (and digests) are too.
        """
        active_tests = tuple(tests) if tests is not None else self.config.tests
        result = CampaignResult(
            config=self.config, host_addresses=self.host_addresses, scenario=self.scenario
        )
        sim = self.probe.sim
        run_for = sim.run_for
        prober_run = self.prober.run
        add = result.add
        scenario = self.scenario
        spacing = self.config.spacing
        gap = self.config.inter_measurement_gap
        round_gap = self.config.inter_round_gap
        cells = [
            (address, test) for address in self.host_addresses for test in active_tests
        ]
        for round_index in range(self.config.rounds):
            for address, test in cells:
                now = sim.now
                report = prober_run(test, address, spacing=spacing)
                add(
                    HostRoundResult(
                        round_index=round_index,
                        host_address=address,
                        test=test,
                        time=now,
                        report=report,
                        scenario=scenario,
                    )
                )
                if gap > 0.0:
                    run_for(gap)
            if round_gap > 0.0:
                run_for(round_gap)
        return result
