"""A call budget for the simulated packet path.

Every simulated packet is built, carried hop by hop through the path
elements and the event loop, answered by the host TCP stack and captured by
the probe, all in Python.  Counting Python ``call`` events per packet built
measures how many frames that path pays, deterministically: the count does
not depend on the machine's speed or load, only on the code.

The test runs one 4-host ``imc2002-survey`` shard (10 samples, all four
techniques) through ``run_shard`` on its own thread under
:func:`sys.setprofile`, and divides the calls by the packets built (the
delta of the packet uid counter).  The budget is the value measured when it
was pinned plus one call.  A change that adds frames to the per-packet path
fails here; a change that removes some should lower ``MEASURED``.
"""

from __future__ import annotations

import sys

from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import ShardTask, run_shard
from repro.net.packet import Packet, TcpHeader
from repro.scenarios import LEGACY_SCENARIO, build_scenario_hosts, get_scenario

MEASURED = 24.41
"""Calls per packet on the shard below: 24.41 on CPython 3.11.7, 24.34 on 3.12.1 and 3.13.0."""

BUDGET = MEASURED + 1.0


def _shard() -> ShardTask:
    scenario = get_scenario(LEGACY_SCENARIO).with_population(num_hosts=4)
    config = CampaignConfig(rounds=1, samples_per_measurement=10, tests=TestName.all())
    return ShardTask(
        index=0,
        specs=tuple(build_scenario_hosts(scenario, seed=2002)),
        config=config,
        tests=None,
        seed=1,
        remote_port=80,
        scenario=LEGACY_SCENARIO,
    )


def _marker_uid() -> int:
    """Build a throwaway packet and return its uid: where the packet counter stands."""
    return Packet.tcp_packet(0, 0, TcpHeader(src_port=1, dst_port=1)).uid


def calls_per_packet(task: ShardTask) -> tuple[float, int]:
    """Python ``call`` events per packet built while ``task`` runs, and the packets."""
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    first = _marker_uid()
    sys.setprofile(count)
    try:
        run_shard(task)
    finally:
        sys.setprofile(None)
    packets = _marker_uid() - first - 1  # the packets built between the markers
    return calls / packets, packets


def test_the_packet_path_stays_within_its_call_budget():
    task = _shard()
    run_shard(task)  # first-use imports and caches are not the packet path's cost
    per_packet, packets = calls_per_packet(task)
    assert packets > 1500, f"the shard built only {packets} packets"
    assert per_packet <= BUDGET, (
        f"{per_packet:.2f} Python calls per packet (budget {BUDGET:.2f}, measured "
        f"{MEASURED:.2f} when pinned) over {packets} packets: a change put frames "
        "back on the per-packet path. If the extra calls are deliberate, re-pin: "
        "set MEASURED in tests/test_packet_path_budget.py to the value printed here."
    )
