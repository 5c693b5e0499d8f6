"""E6 — Host eligibility and reordering prevalence (paper §IV-B).

Paper: of the 50 surveyed hosts, the dual-connection test was ruled out for 8
(transparent load balancers) plus 9 (constant zero IPID, i.e. Linux 2.4), and
more than 15 % of measurements contained at least one reordered sample.
"""

from __future__ import annotations

from bench_helpers import run_once

from repro.analysis.streaming import stream_survey
import _paper_experiments as experiments


def test_bench_host_eligibility(benchmark):
    specs, campaign = run_once(benchmark, experiments.e6_host_eligibility)
    summary = stream_survey(campaign.records, campaign.host_addresses).eligibility()
    print()
    print(summary.to_table())

    zero_ipid_hosts = sum(1 for s in specs if s.profile.name == "linux-2.4")
    random_ipid_hosts = sum(1 for s in specs if s.profile.name == "openbsd-3.0")
    balanced_hosts = sum(1 for s in specs if s.load_balancer_backends >= 2)
    print(f"population: {zero_ipid_hosts} zero-IPID, {random_ipid_hosts} random-IPID, "
          f"{balanced_hosts} load-balanced hosts out of {experiments.E6_NUM_HOSTS}")
