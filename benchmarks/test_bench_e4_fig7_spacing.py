"""E4 — Figure 7: reordering probability vs. inter-packet spacing.

Paper: on a path with significant reordering, minimum-sized back-to-back
packets are reordered more than 10 % of the time, dropping below 2 % once
50 us of spacing is added and approaching zero by 250 us (dual-connection
test, 1000 samples per point, 1 us steps below 200 us).  Here: the striped
path model, a coarser grid, and 250 samples per point.
"""

from __future__ import annotations

from bench_helpers import run_once

from repro.analysis.figures import build_fig7_series
import _paper_experiments as experiments


def test_bench_fig7_spacing_distribution(benchmark):
    fig7 = build_fig7_series(run_once(benchmark, experiments.e4_spacing_sweep))

    print()
    print("Figure 7 — reordering probability vs. inter-packet spacing")
    for spacing_us, rate in fig7.rows():
        print(f"  {spacing_us:6.0f} us  {rate:.4f}")
    decay = fig7.decay_spacing(fraction=0.35)
    print(f"back-to-back rate: {fig7.back_to_back_rate():.3f}")
    print(f"mean rate beyond 250 us: {fig7.rate_beyond(250e-6):.4f}")
    print(f"spacing where the rate falls below 35% of baseline: "
          f"{'n/a' if decay is None else f'{decay * 1e6:.0f} us'}")
