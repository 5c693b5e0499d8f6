#!/usr/bin/env python3
"""A miniature version of the paper's Internet survey (§IV-B).

Generates a synthetic population of hosts (diverse operating systems, some
behind load balancers, per-path reordering processes), runs a round-robin
campaign of all four techniques against it, and prints the three survey-level
results the paper reports: the CDF of per-path reordering rates (Figure 5),
host eligibility per technique, and the cross-test agreement matrix.
"""

from __future__ import annotations

from repro import Campaign, CampaignConfig, Direction, TestName, build_testbed, generate_population
from repro.analysis.streaming import stream_survey
from repro.workloads.population import PopulationSpec


def main() -> None:
    population = PopulationSpec(num_hosts=12, reordering_path_fraction=0.5)
    specs = generate_population(population, seed=2026)
    testbed = build_testbed(specs, seed=2026)

    config = CampaignConfig(
        rounds=3,
        samples_per_measurement=12,
        tests=(TestName.SINGLE_CONNECTION, TestName.DUAL_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.5,
        inter_round_gap=5.0,
    )
    campaign = Campaign(testbed.probe, testbed.addresses(), config).run()

    survey = stream_survey(campaign.records, campaign.host_addresses)
    fig5 = survey.fig5(TestName.SINGLE_CONNECTION, Direction.FORWARD)
    print("CDF of per-path forward reordering rates (single connection test):")
    for rate, fraction in fig5.rows():
        print(f"  rate <= {rate:.4f}: {fraction:.0%} of paths")
    print(f"paths with any forward reordering: {fig5.fraction_with_reordering:.0%}")
    print()

    print(survey.eligibility().to_table())
    print()

    matrix = survey.agreement(
        pairs=[(TestName.SINGLE_CONNECTION, TestName.SYN)],
        confidence=0.999,
        min_pairs=3,
    )
    print(matrix.to_table())


if __name__ == "__main__":
    main()
