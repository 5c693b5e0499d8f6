#!/usr/bin/env python3
"""Profile one sharded scenario sweep and print the top cumulative hotspots.

Future performance PRs should start from data, not intuition: this script
runs a small scenario sweep through the sharded campaign runner under
:mod:`cProfile` and prints the top-20 functions by cumulative time.  The
PR 3 hot-path overhaul was driven by exactly this view — the costs were
spread across enum flag operations, event-heap comparisons, per-event
predicate polling, and packet length recomputation rather than concentrated
in one function, which is why that PR touched every layer.

``--backend serial`` (the default) keeps every simulated event inside the
profiled process; ``--backend process`` profiles the *dispatch* side instead
— batch submission, result decoding, pool bookkeeping — which is the view
the batched transport was tuned against.  The sweep runs as the same
single shard stream a :class:`repro.api.Session` dispatches for a
:class:`~repro.api.MatrixRequest` (every cell's shard tasks, numbered on
across cells, through ``backend.iter_shards``), but on the main thread: a
session's job-worker thread would hide the work from the profiler.

Next to the hotspots it prints the Python calls per packet built in the
profiled process (the serial backend builds them all): the frames the
simulated packet path pays, which ``tests/test_packet_path_budget.py``
holds to a budget.

Usage::

    PYTHONPATH=src python examples/profile_campaign.py \
        [--hosts N] [--top K] [--backend serial|process] [--out FILE]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats

from repro.api import MatrixRequest
from repro.api.backends import backend_names, create_backend
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import merge_records
from repro.net.packet import Packet, TcpHeader
from repro.scenarios import MIXED_OS, ScenarioMatrix, scenario_names

SEED = 1302


def marker_uid() -> int:
    """Build a throwaway packet and return its uid: where the packet counter stands."""
    return Packet.tcp_packet(0, 0, TcpHeader(src_port=1, dst_port=1)).uid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hosts", type=int, default=4, help="hosts per scenario cell")
    parser.add_argument("--shards", type=int, default=2, help="shards per cell")
    parser.add_argument("--top", type=int, default=20, help="hotspots to print")
    parser.add_argument(
        "--backend",
        default="serial",
        choices=backend_names(),
        help="execution backend to profile (serial = simulation hot path, "
        "process = batched dispatch and transport overhead)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime"),
        help="pstats sort order",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also dump raw pstats data to this file (for CI artifacts)",
    )
    args = parser.parse_args()

    config = CampaignConfig(
        rounds=1,
        samples_per_measurement=6,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.2,
        inter_round_gap=1.0,
    )
    matrix = ScenarioMatrix.of(scenario_names()[:3], (MIXED_OS,))
    request = MatrixRequest(
        matrix=matrix, config=config, hosts=args.hosts, seed=SEED, shards=args.shards
    )

    total_measurements = 0
    profiler = cProfile.Profile()
    with create_backend(args.backend) as backend:
        first_uid = marker_uid()
        profiler.enable()
        plans = request.normalized()  # the population builds are profiled too
        tasks, cell_of = [], {}
        for position, plan in enumerate(plans):
            cell_tasks = plan.shard_tasks(first_index=len(tasks))
            cell_of.update((task.index, position) for task in cell_tasks)
            tasks.extend(cell_tasks)
        outcomes = [[] for _ in plans]
        for outcome in backend.iter_shards(tasks):
            outcomes[cell_of[outcome.index]].append(outcome)
        for plan, cell_outcomes in zip(plans, outcomes):
            records = (record for outcome in cell_outcomes for record in outcome.records)
            result = merge_records(records, plan)
            total_measurements += sum(
                1 for record in result.records if record.report.result is not None
            )
        profiler.disable()
        packets = marker_uid() - first_uid - 1  # the packets built between the markers

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    # Builtins are profiled under the file name "~"; the rest are Python frames.
    python_calls = sum(entry[1] for (filename, _, _), entry in stats.stats.items() if filename != "~")
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
    print(
        f"profiled sweep: {len(plans)} cells on backend {args.backend!r}, "
        f"{total_measurements} measurements"
    )
    if packets:
        print(
            f"{python_calls / packets:.2f} Python calls per packet built "
            f"({python_calls} calls, {packets} packets)"
        )
    print(f"top {args.top} functions by {args.sort} time:")
    print(stream.getvalue())
    if args.out:
        print(f"raw pstats written to {args.out}")


if __name__ == "__main__":
    main()
