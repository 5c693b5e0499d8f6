"""E2 — Figure 5: CDF of per-path reordering rates over the survey.

Paper: 50 hosts probed for 20 days; over 40 % of paths saw some reordering;
forward-path reordering exceeds reverse-path reordering from the probe's
vantage point.  Here: a 14-host synthetic population and a short campaign.
"""

from __future__ import annotations

from bench_helpers import run_once

from repro.analysis.streaming import stream_survey
from repro.core.prober import TestName
from repro.core.sample import Direction
import _paper_experiments as experiments


def test_bench_fig5_cdf(benchmark):
    campaign = run_once(benchmark, experiments.e2_fig5_campaign)
    survey = stream_survey(campaign.records, campaign.host_addresses)
    forward = survey.fig5(TestName.SINGLE_CONNECTION, Direction.FORWARD)
    reverse = survey.fig5(TestName.SINGLE_CONNECTION, Direction.REVERSE)

    print()
    print("Figure 5 — CDF of per-path forward reordering rates (rate, cumulative fraction)")
    for value, fraction in forward.rows():
        print(f"  {value:.4f}\t{fraction:.3f}")
    print(f"paths with any forward reordering: {forward.fraction_with_reordering:.1%}")
    print(f"paths with any reverse reordering: {reverse.fraction_with_reordering:.1%}")
