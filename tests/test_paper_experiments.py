"""The paper's experiments E1–E8 hold the paper's shape.

Each test runs one experiment from ``_paper_experiments`` (the same runs the
benchmarks time and print) and asserts the shape the paper reports.  E2, E5
and E6 read their tables from the survey fold, so they also guard the
analysis path end to end.
"""

from __future__ import annotations

from repro.analysis.figures import build_fig6_series, build_fig7_series
from repro.analysis.streaming import stream_survey
from repro.core.metrics import sequence_reordering_probability
from repro.core.prober import TestName
from repro.core.sample import Direction
import _paper_experiments as experiments


def test_e1_controlled_validation_at_paper_size():
    summary = experiments.e1_controlled_validation()
    rates = len(experiments.E1_RATES)
    # The paper's own count: 3 tests x 36 cells + 6 data-transfer runs.
    assert summary.total_runs() == 3 * rates * rates + rates == 114
    # Paper shape: nearly every run matches the trace exactly, aggregate
    # sample accuracy is ~99.99 %, and no run is off by more than a couple of
    # reordering events.
    assert summary.sample_accuracy() > 0.995
    assert summary.max_discrepancy() <= 2
    assert summary.runs_with_forward_discrepancy() + summary.runs_with_reverse_discrepancy() <= 3


def test_e2_fig5_most_reordering_is_forward():
    campaign = experiments.e2_fig5_campaign()
    survey = stream_survey(campaign.records, campaign.host_addresses)
    forward = survey.fig5(TestName.SINGLE_CONNECTION, Direction.FORWARD)
    reverse = survey.fig5(TestName.SINGLE_CONNECTION, Direction.REVERSE)
    assert len(forward.per_path_rates) == experiments.E2_NUM_HOSTS
    # Paper shape: a substantial fraction (>40 % over 20 days; here a shorter
    # campaign still finds >25 %) of paths show some reordering, and forward
    # reordering dominates reverse reordering.
    assert forward.fraction_with_reordering > 0.25
    mean_forward = sum(forward.per_path_rates.values()) / experiments.E2_NUM_HOSTS
    mean_reverse = sum(reverse.per_path_rates.values()) / max(1, len(reverse.per_path_rates))
    assert mean_forward > mean_reverse


def test_e3_fig6_single_and_syn_agree_on_a_load_balanced_site():
    campaign, dual_reports, address = experiments.e3_load_balanced_site()
    fig6 = build_fig6_series(campaign, address)
    assert len(fig6.series[TestName.SINGLE_CONNECTION]) == experiments.E3_ROUNDS
    assert len(fig6.series[TestName.SYN]) == experiments.E3_ROUNDS
    mean_single = fig6.mean_rate(TestName.SINGLE_CONNECTION)
    mean_syn = fig6.mean_rate(TestName.SYN)
    # Paper shape: both usable tests see reordering on this path and agree to
    # within a modest margin, while the dual test is unusable at least some of
    # the time because connections are split across backends.
    assert mean_single > 0.0 and mean_syn > 0.0
    assert abs(mean_single - mean_syn) < 0.15
    assert sum(1 for report in dual_reports if report.ineligible) >= 1


def test_e4_fig7_reordering_decays_with_spacing():
    fig7 = build_fig7_series(experiments.e4_spacing_sweep())
    back_to_back = fig7.back_to_back_rate()
    beyond_250us = fig7.rate_beyond(250e-6)
    decay = fig7.decay_spacing(fraction=0.35)
    # Paper shape: substantial back-to-back reordering that decays quickly
    # with spacing and is essentially gone within a few hundred microseconds.
    assert back_to_back > 0.05
    assert beyond_250us is not None and beyond_250us < back_to_back / 3.0
    assert beyond_250us < 0.03
    assert decay is not None and decay <= 250e-6


def test_e5_packet_pair_tests_agree_at_999_confidence():
    matrix = experiments.e5_pairwise_agreement()
    forward_cell = matrix.cell_for(TestName.SINGLE_CONNECTION, TestName.SYN, Direction.FORWARD)
    reverse_cell = matrix.cell_for(TestName.SINGLE_CONNECTION, TestName.SYN, Direction.REVERSE)
    assert forward_cell is not None and reverse_cell is not None
    assert forward_cell.hosts_compared >= experiments.E5_NUM_HOSTS // 2
    # Paper shape: the two packet-pair techniques agree on a clear majority of
    # hosts at 99.9 % confidence in both directions.
    assert forward_cell.support_fraction >= 0.6
    assert reverse_cell.support_fraction >= 0.6
    assert matrix.cell_for(TestName.SYN, TestName.DATA_TRANSFER, Direction.REVERSE) is not None
    # The data-transfer test cannot measure the forward path.
    assert matrix.cell_for(TestName.SYN, TestName.DATA_TRANSFER, Direction.FORWARD) is None


def test_e6_dual_connection_is_ruled_out_for_a_minority():
    specs, campaign = experiments.e6_host_eligibility()
    summary = stream_survey(campaign.records, campaign.host_addresses).eligibility()
    zero_ipid_hosts = sum(1 for s in specs if s.profile.name == "linux-2.4")
    random_ipid_hosts = sum(1 for s in specs if s.profile.name == "openbsd-3.0")
    balanced_hosts = sum(1 for s in specs if s.load_balancer_backends >= 2)
    # Paper shape: a noticeable minority of hosts is unusable for the
    # dual-connection test (zero IPID / random IPID / load balancers), while
    # the single-connection and SYN tests work essentially everywhere.
    dual = summary.ineligible[TestName.DUAL_CONNECTION]
    assert zero_ipid_hosts <= dual <= zero_ipid_hosts + random_ipid_hosts + balanced_hosts + 1
    assert summary.ineligible[TestName.SINGLE_CONNECTION] == 0
    assert summary.ineligible[TestName.SYN] == 0
    # The data-transfer test never ran, so no host is claimed eligible for it.
    assert summary.eligible_hosts(TestName.DATA_TRANSFER) is None
    # Paper: >15 % of measurements contained at least one reordered sample.
    assert summary.fraction_measurements_with_reordering > 0.15


def test_e7_baselines_cannot_attribute_a_direction():
    dual, paxson, bennett_small, bennett_large = experiments.e7_baselines()
    forward = dual.reordering_rate(Direction.FORWARD)
    reverse = dual.reordering_rate(Direction.REVERSE)
    assert forward > reverse  # the paper's tests attribute reordering per direction
    assert paxson.sessions_with_reordering().rate > 0.5  # most 64 KB transfers see an event
    assert 0.0 < paxson.packet_reordering_fraction().rate < 0.2
    # The burst metric grows with burst size (the paper's criticism of its
    # generalisability): expected 1-(1-p)^(n-1) under an IID approximation.
    burst5 = bennett_small.bursts_with_reordering()
    assert bennett_large.bursts_with_reordering().rate > burst5.rate
    predicted5 = sequence_reordering_probability(forward + reverse - forward * reverse, 5)
    assert abs(burst5.rate - predicted5) < 0.35


def test_e8_each_design_decision_pays_off():
    order_results, (spurious, total), size_rates = experiments.e8_ablations()
    # D1: the reversed order keeps most samples usable on a stack that delays
    # every acknowledgment; the naive order loses a large fraction to the
    # delayed-ACK ambiguity.
    assert order_results[True] > order_results[False]
    # D2: without validation, a random-IPID host yields a large number of
    # spurious "reordering" verdicts on a path with no reordering at all.
    assert spurious > total // 5
    # D4: spacing equivalent to full-size serialization reduces the rate.
    assert size_rates["full-sized"] < size_rates["minimum-sized"]
