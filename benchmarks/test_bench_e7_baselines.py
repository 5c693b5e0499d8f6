"""E7 — Prior-work baselines on the same simulated paths (paper §II).

Paxson-style passive transfer analysis and Bennett-style ICMP bursts are run
against the same reordering path as the paper's dual-connection test, showing
(a) that the burst metric depends strongly on burst size, and (b) that the
ICMP methodology cannot attribute reordering to a direction, while the
packet-pair techniques measure each path separately.
"""

from __future__ import annotations

from bench_helpers import run_once

from repro.analysis.report import format_table
from repro.core.sample import Direction
import _paper_experiments as experiments


def test_bench_baselines(benchmark):
    dual, paxson, bennett_small, bennett_large = run_once(benchmark, experiments.e7_baselines)
    rows = [
        ["dual-connection (this paper)", "forward pair-exchange rate",
         f"{dual.reordering_rate(Direction.FORWARD):.3f}"],
        ["dual-connection (this paper)", "reverse pair-exchange rate",
         f"{dual.reordering_rate(Direction.REVERSE):.3f}"],
        ["Paxson passive transfer", "sessions with reordering",
         paxson.sessions_with_reordering().describe()],
        ["Paxson passive transfer", "packets reordered (data dir.)",
         paxson.packet_reordering_fraction().describe()],
        ["Bennett ICMP bursts (5 pkts)", "bursts with reordering",
         bennett_small.bursts_with_reordering().describe()],
        ["Bennett ICMP bursts (20 pkts)", "bursts with reordering",
         bennett_large.bursts_with_reordering().describe()],
        ["Bennett ICMP bursts (5 pkts)", "mean SACK blocks",
         f"{bennett_small.mean_sack_blocks():.2f}"],
    ]
    print()
    print(format_table(["methodology", "metric", "value"], rows, title="E7 — baselines on the same path"))
