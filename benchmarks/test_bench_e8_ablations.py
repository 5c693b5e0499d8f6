"""E8 — Ablations of the design decisions called out in DESIGN.md (D1-D4).

D1: the reversed send order of the single-connection test versus the naive
    order on a stack that delays even hole-filling ACKs.
D2: IPID validation before the dual-connection test versus trusting IPIDs
    blindly on a pseudo-random-IPID host.
D4: packet size: full-sized sample packets see less reordering than
    minimum-sized ones on a striped path (why the data-transfer test
    under-reports).
"""

from __future__ import annotations

from bench_helpers import run_once

from repro.analysis.report import format_table
import _paper_experiments as experiments


def test_bench_ablations(benchmark):
    order_results, (spurious, total), size_rates = run_once(benchmark, experiments.e8_ablations)
    rows = [
        ["D1 reversed send order", "usable forward samples (legacy stack)", f"{order_results[True]:.0%}"],
        ["D1 naive send order", "usable forward samples (legacy stack)", f"{order_results[False]:.0%}"],
        ["D2 no IPID validation", "spurious reorderings from random IPIDs", f"{spurious}/{total}"],
        ["D4 minimum-sized pairs", "forward pair-exchange rate", f"{size_rates['minimum-sized']:.3f}"],
        ["D4 full-sized-equivalent gap", "forward pair-exchange rate", f"{size_rates['full-sized']:.3f}"],
    ]
    print()
    print(format_table(["ablation", "metric", "value"], rows, title="E8 — design-decision ablations"))
