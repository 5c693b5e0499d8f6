"""E5 — Pairwise agreement between techniques (paper §IV-B).

Paper: with the pair-difference statistic at 99.9 % confidence, the single
connection and SYN tests agree on 78 % of hosts on the forward path and 93 %
on the reverse path; the data-transfer test under-reports reordering during
heavy-reordering periods relative to the packet-pair tests.
"""

from __future__ import annotations

from bench_helpers import run_once

from repro.core.prober import TestName
from repro.core.sample import Direction
import _paper_experiments as experiments


def test_bench_pairwise_agreement(benchmark):
    matrix = run_once(benchmark, experiments.e5_pairwise_agreement)
    print()
    print(matrix.to_table())

    forward_cell = matrix.cell_for(TestName.SINGLE_CONNECTION, TestName.SYN, Direction.FORWARD)
    reverse_cell = matrix.cell_for(TestName.SINGLE_CONNECTION, TestName.SYN, Direction.REVERSE)
    transfer_cell = matrix.cell_for(TestName.SYN, TestName.DATA_TRANSFER, Direction.REVERSE)
    print(f"single vs syn forward agreement: {forward_cell.support_fraction:.0%}")
    print(f"single vs syn reverse agreement: {reverse_cell.support_fraction:.0%}")
    print(f"syn vs data-transfer reverse agreement: {transfer_cell.support_fraction:.0%}")
