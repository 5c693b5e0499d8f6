"""E3 — Figure 6: single-connection vs. SYN test on a load-balanced site.

Paper: forward-path reordering to www.apple.com measured by the single
connection and SYN tests tracks closely; the dual connection test could not
be used because the site sits behind a transparent load balancer.
"""

from __future__ import annotations

from bench_helpers import run_once

from repro.analysis.figures import build_fig6_series
from repro.core.prober import TestName
import _paper_experiments as experiments


def test_bench_fig6_load_balanced_site(benchmark):
    campaign, dual_reports, address = run_once(benchmark, experiments.e3_load_balanced_site)
    fig6 = build_fig6_series(campaign, address)

    print()
    print("Figure 6 — forward reordering rate per measurement (time, test, rate)")
    for time, test, rate in fig6.rows():
        print(f"  {time:9.1f}s  {test:18s} {rate:.3f}")
    print(f"mean single-connection rate: {fig6.mean_rate(TestName.SINGLE_CONNECTION):.3f}")
    print(f"mean SYN-test rate:          {fig6.mean_rate(TestName.SYN):.3f}")
    dual_blocked = sum(1 for report in dual_reports if report.ineligible)
    print(f"dual-connection attempts rejected by IPID validation: {dual_blocked}/4")
