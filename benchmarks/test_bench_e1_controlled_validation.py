"""E1 — Controlled validation table (paper §IV-A).

Paper: 6x6 grid of forward/reverse rates, 100 samples per cell, 114 runs;
8 forward and 2 reverse discrepancies; 99.99 % of samples classified
correctly.  Here the same paper-size grid, checked against trace ground
truth; ``tests/test_paper_experiments.py`` asserts the accuracy criterion.
"""

from __future__ import annotations

from bench_helpers import run_once

from repro.analysis.validation import validation_table
import _paper_experiments as experiments


def test_bench_controlled_validation(benchmark):
    summary = run_once(benchmark, experiments.e1_controlled_validation)
    print()
    print(validation_table(summary))
