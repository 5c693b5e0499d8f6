"""Survey analysis as one fold over campaign records.

Every §IV table is a view of one :class:`StreamingSurvey`: host eligibility
(E6), the Figure 5 CDF of per-path rates (E2), pairwise agreement (E5), the
middlebox taxonomy and the cross-scenario comparison.  The survey consumes
records one at a time — from a result's ``records``, a session envelope, or
:meth:`repro.store.store.CampaignStore.iter_records` — and keeps only
per-(host, test) aggregates: flags, rate sums, each round's rate per
direction, and the error strings of failed attempts.  No sample outlives the
record that carried it, so a store too large for memory still folds.

Feeding a complete store gives the same tables as feeding
``store.load_result().records``: per-host record order is preserved within a
shard, so even the floating-point rate sums accumulate in the same order.
Per-scenario slices fall out of the same pass, keyed by the scenario stamp
each record carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.analysis.agreement import AgreementCell, AgreementMatrix
from repro.analysis.figures import Fig5Data
from repro.analysis.middlebox import MiddleboxTaxonomy, diagnose
from repro.analysis.scenarios import ScenarioComparison, ScenarioSliceSummary
from repro.analysis.survey import EligibilitySummary
from repro.core.campaign import HostRoundResult
from repro.core.prober import TestName
from repro.core.sample import Direction
from repro.net.errors import AnalysisError
from repro.stats.cdf import EmpiricalCdf
from repro.stats.pair_difference import paired_difference_test

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.store.store import CampaignStore


@dataclass(slots=True)
class _PathState:
    """Online per-(host, test) aggregates."""

    ineligible: bool = False
    succeeded: bool = False
    forward_rate_sum: float = 0.0
    forward_rate_count: int = 0
    reverse_rate_sum: float = 0.0
    reverse_rate_count: int = 0
    forward_by_round: dict[int, float] = field(default_factory=dict)
    reverse_by_round: dict[int, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def mean_rate(self, direction: Direction) -> Optional[float]:
        if direction is Direction.FORWARD:
            total, count = self.forward_rate_sum, self.forward_rate_count
        else:
            total, count = self.reverse_rate_sum, self.reverse_rate_count
        if count == 0:
            return None
        return total / count

    def by_round(self, direction: Direction) -> dict[int, float]:
        if direction is Direction.FORWARD:
            return self.forward_by_round
        return self.reverse_by_round


@dataclass(slots=True)
class StreamingSurvey:
    """Single-pass survey aggregation over campaign records.

    ``host_addresses`` fixes the population (and hence ``total_hosts``) when
    known up front — e.g. from a store's plan; hosts are otherwise discovered
    in observation order.
    """

    host_addresses: tuple[int, ...] = ()
    _discover_hosts: bool = field(init=False, default=False)
    _paths: dict = field(init=False, default_factory=dict)
    _hosts_seen: dict = field(init=False, default_factory=dict)
    _scenarios: dict = field(init=False, default_factory=dict)
    measurements_total: int = field(init=False, default=0)
    measurements_with_reordering: int = field(init=False, default=0)
    records_observed: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.host_addresses = tuple(self.host_addresses)
        self._discover_hosts = not self.host_addresses
        for address in self.host_addresses:
            self._hosts_seen[address] = None

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def observe(self, record: HostRoundResult) -> None:
        """Fold one campaign record into the running aggregates."""
        self._observe_here(record)
        slice_ = self._scenarios.get(record.scenario or "unnamed")
        if slice_ is None:
            # A fixed population fixes each slice's too, so a partial store's
            # comparison counts the same hosts as its eligibility table.
            slice_ = StreamingSurvey(host_addresses=self.host_addresses)
            self._scenarios[record.scenario or "unnamed"] = slice_
        slice_._observe_here(record)

    def observe_all(self, records: Iterable[HostRoundResult]) -> "StreamingSurvey":
        """Fold many records; returns self for chaining."""
        for record in records:
            self.observe(record)
        return self

    def _observe_here(self, record: HostRoundResult) -> None:
        self.records_observed += 1
        if self._discover_hosts and record.host_address not in self._hosts_seen:
            self._hosts_seen[record.host_address] = None
        report = record.report
        key = (record.host_address, record.test)
        state = self._paths.get(key)
        if state is None:
            state = self._paths[key] = _PathState()
        state.ineligible = state.ineligible or report.ineligible
        if report.error:
            state.errors.append(report.error)
        if report.succeeded:
            state.succeeded = True
            self.measurements_total += 1
        result = report.result
        if result is None:
            return
        if result.has_reordering():
            self.measurements_with_reordering += 1
        forward = result.reordering_rate(Direction.FORWARD)
        if forward is not None:
            state.forward_rate_sum += forward
            state.forward_rate_count += 1
            state.forward_by_round[record.round_index] = forward
        reverse = result.reordering_rate(Direction.REVERSE)
        if reverse is not None:
            state.reverse_rate_sum += reverse
            state.reverse_rate_count += 1
            state.reverse_by_round[record.round_index] = reverse

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def hosts(self) -> tuple[int, ...]:
        """The population: fixed up front, or discovered from the stream."""
        return tuple(self._hosts_seen)

    def ineligible_hosts(self, test: TestName) -> set[int]:
        """Hosts ruled out for ``test``: any attempt failed an explicit
        eligibility check (the paper ruled the dual-connection test out for a
        host as soon as IPID validation failed), or no attempt produced
        samples."""
        failed = set()
        for address in self.hosts:
            state = self._paths.get((address, test))
            if state is None:
                continue
            if state.ineligible or not state.succeeded:
                failed.add(address)
        return failed

    def eligibility(self) -> EligibilitySummary:
        """The eligibility table (E6); only techniques that produced a record
        get an entry, and only hosts with a record for a technique count as
        eligible for it."""
        summary = EligibilitySummary(total_hosts=len(self.hosts))
        measured = {test for _address, test in self._paths}
        for test in TestName.all():
            if test in measured:
                probed = sum((address, test) in self._paths for address in self.hosts)
                ineligible = len(self.ineligible_hosts(test))
                summary.ineligible[test] = ineligible
                summary.eligible[test] = probed - ineligible
        summary.measurements_total = self.measurements_total
        summary.measurements_with_reordering = self.measurements_with_reordering
        return summary

    def path_rates(self, test: TestName, direction: Direction) -> dict[int, float]:
        """Per-host mean reordering rate for one technique and direction."""
        rates: dict[int, float] = {}
        for address in self.hosts:
            state = self._paths.get((address, test))
            if state is None:
                continue
            rate = state.mean_rate(direction)
            if rate is not None:
                rates[address] = rate
        return rates

    def fig5(
        self,
        test: TestName = TestName.SINGLE_CONNECTION,
        direction: Direction = Direction.FORWARD,
    ) -> Fig5Data:
        """The Figure 5 CDF of per-path mean rates (E2)."""
        rates = self.path_rates(test, direction)
        return Fig5Data(
            direction=direction,
            test=test,
            per_path_rates=rates,
            cdf=EmpiricalCdf(rates.values()) if rates else None,
        )

    def agreement(
        self,
        pairs: Optional[Sequence[tuple[TestName, TestName]]] = None,
        directions: Sequence[Direction] = (Direction.FORWARD, Direction.REVERSE),
        confidence: float = 0.999,
        min_pairs: int = 3,
    ) -> AgreementMatrix:
        """Pairwise agreement between techniques (E5).

        For each host, two tests' per-round rates are paired by campaign
        round; the host supports agreement when the pair-difference
        interval at ``confidence`` contains zero.  Hosts with fewer than
        ``min_pairs`` paired rounds are not compared.  ``pairs`` defaults to
        every pair of techniques.
        """
        if pairs is None:
            tests = TestName.all()
            pairs = [(a, b) for i, a in enumerate(tests) for b in tests[i + 1:]]
        matrix = AgreementMatrix(confidence=confidence)
        for test_a, test_b in pairs:
            for direction in directions:
                if direction is Direction.FORWARD and TestName.DATA_TRANSFER in (test_a, test_b):
                    # The data-transfer test cannot measure the forward path.
                    continue
                compared = supporting = 0
                for address in self.hosts:
                    rounds_a = self._rounds(address, test_a, direction)
                    rounds_b = self._rounds(address, test_b, direction)
                    common = sorted(rounds_a.keys() & rounds_b.keys())
                    if len(common) < min_pairs:
                        continue
                    try:
                        result = paired_difference_test(
                            [rounds_a[r] for r in common],
                            [rounds_b[r] for r in common],
                            confidence=confidence,
                        )
                    except AnalysisError:
                        continue
                    compared += 1
                    if result.supports_null:
                        supporting += 1
                matrix.cells.append(
                    AgreementCell(
                        test_a=test_a,
                        test_b=test_b,
                        direction=direction,
                        hosts_compared=compared,
                        hosts_supporting_null=supporting,
                    )
                )
        return matrix

    def _rounds(self, address: int, test: TestName, direction: Direction) -> dict[int, float]:
        state = self._paths.get((address, test))
        return {} if state is None else state.by_round(direction)

    def taxonomy(self) -> MiddleboxTaxonomy:
        """Every measured host's failures, classified by middlebox cause."""
        errors: dict[int, dict[TestName, list[str]]] = {}
        for (address, test), state in self._paths.items():
            errors.setdefault(address, {})[test] = state.errors
        return MiddleboxTaxonomy(
            total_hosts=len(errors),
            diagnoses=[diagnose(address, errors[address]) for address in sorted(errors)],
        )

    def scenario_slices(self) -> dict[str, "StreamingSurvey"]:
        """Per-scenario sub-surveys, keyed by the records' scenario stamps."""
        return dict(self._scenarios)

    def comparison(
        self,
        test: TestName = TestName.SINGLE_CONNECTION,
        direction: Direction = Direction.FORWARD,
    ) -> ScenarioComparison:
        """The cross-scenario comparison, one row per scenario slice."""
        return ScenarioComparison(
            test=test,
            direction=direction,
            slices=[
                ScenarioSliceSummary(
                    scenario=name,
                    eligibility=slice_.eligibility(),
                    fig5=slice_.fig5(test, direction),
                )
                for name, slice_ in self._scenarios.items()
            ],
        )


def stream_survey(
    records: Iterable[HostRoundResult],
    host_addresses: Sequence[int] = (),
) -> StreamingSurvey:
    """Aggregate an iterable of records in one streaming pass."""
    return StreamingSurvey(host_addresses=tuple(host_addresses)).observe_all(records)


def survey_from_store(store: "CampaignStore") -> StreamingSurvey:
    """Stream a campaign store's durable records into a survey summary.

    Works on partial stores too (the summary then covers the durable shards
    only — check ``store.is_complete()`` before treating it as the survey).
    """
    return stream_survey(store.iter_records(), host_addresses=store.plan().host_addresses)


def survey_from_envelope(envelope) -> StreamingSurvey:
    """Stream a session result envelope's records into a survey summary.

    Accepts a ``campaign`` envelope (one dataset) or a ``matrix`` envelope
    (every cell's records, with per-scenario slices keyed by cell label) —
    the shape :meth:`repro.api.session.Session.run` hands back.

    For matrix envelopes, read per-cell numbers from
    :meth:`StreamingSurvey.scenario_slices` or
    :meth:`StreamingSurvey.comparison`: matrix cells rebuild their
    populations at the same host addresses, so the *top-level* per-path
    aggregates (eligibility flags, mean rates) merge same-addressed hosts
    from different cells — an all-cells roll-up, not a per-cell view.
    """
    from repro.api.envelope import KIND_CAMPAIGN, ResultEnvelope

    if not isinstance(envelope, ResultEnvelope):
        raise TypeError(f"expected a ResultEnvelope, got {type(envelope).__name__}")
    hosts: tuple[int, ...] = ()
    if envelope.kind == KIND_CAMPAIGN:
        hosts = envelope.result.host_addresses
    return stream_survey(envelope.iter_records(), host_addresses=hosts)


__all__ = [
    "StreamingSurvey",
    "stream_survey",
    "survey_from_envelope",
    "survey_from_store",
]
