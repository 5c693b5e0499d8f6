"""Call budgets for the simulated packet path.

Every simulated packet is built, carried hop by hop through the path
elements and the event loop, answered by the host TCP stack and captured by
the probe, all in Python.  Counting Python ``call`` events per packet built
measures how many frames that path pays, deterministically: the count does
not depend on the machine's speed or load, only on the code.

Each case runs shards through ``run_shard`` under :func:`sys.setprofile`
(after one unprofiled warm-up run) and divides the calls by the packets
built (the delta of the packet uid counter).  A case's budget is the value
measured when it was pinned plus one call.  A change that adds frames to
the per-packet path fails here; a change that removes some should lower
that case's ``MEASURED``.

- The survey shard: one 4-host ``imc2002-survey`` shard, 10 samples, all
  four techniques.
- The sweep's path: one shard per registry scenario, 4 hosts each of
  population seed 2002, single-connection and SYN only, 10 samples, campaign
  seed 1, so the middleboxes of every scenario are crossed.
"""

from __future__ import annotations

import sys

from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import ShardTask, run_shard
from repro.net.packet import Packet, TcpHeader
from repro.scenarios import LEGACY_SCENARIO, build_scenario_hosts, get_scenario, scenario_names

SURVEY_MEASURED = 18.20
"""Calls per packet on the survey shard: 18.20 on CPython 3.11.7, 18.13 on 3.12.1 and 3.13.0."""

SWEEP_MEASURED = 20.91
"""Calls per packet on the sweep's shards: 20.91 on CPython 3.11.7, 20.81 on 3.12.1 and 3.13.0."""


def _task(index: int, scenario_name: str, tests: tuple[TestName, ...]) -> ShardTask:
    scenario = get_scenario(scenario_name).with_population(num_hosts=4)
    return ShardTask(
        index=index,
        specs=tuple(build_scenario_hosts(scenario, seed=2002)),
        config=CampaignConfig(rounds=1, samples_per_measurement=10, tests=tests),
        tests=None,
        seed=1,
        remote_port=80,
        scenario=scenario_name,
    )


def _marker_uid() -> int:
    """Build a throwaway packet and return its uid: where the packet counter stands."""
    return Packet.tcp_packet(0, 0, TcpHeader(src_port=1, dst_port=1)).uid


def calls_per_packet(tasks: list[ShardTask]) -> tuple[float, int]:
    """Python ``call`` events per packet built while ``tasks`` run, and the packets."""
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    first = _marker_uid()
    sys.setprofile(count)
    try:
        for task in tasks:
            run_shard(task)
    finally:
        sys.setprofile(None)
    packets = _marker_uid() - first - 1  # the packets built between the markers
    return calls / packets, packets


def _check_budget(tasks: list[ShardTask], measured: float, name: str, min_packets: int) -> None:
    for task in tasks:
        run_shard(task)  # first-use imports and caches are not the packet path's cost
    per_packet, packets = calls_per_packet(tasks)
    budget = measured + 1.0
    assert packets > min_packets, f"the shards built only {packets} packets"
    assert per_packet <= budget, (
        f"{per_packet:.2f} Python calls per packet (budget {budget:.2f}, measured "
        f"{measured:.2f} when pinned) over {packets} packets: a change put frames "
        "back on the per-packet path. If the extra calls are deliberate, re-pin: "
        f"set {name} in tests/test_packet_path_budget.py to the value printed here."
    )


def test_the_packet_path_stays_within_its_call_budget():
    tasks = [_task(0, LEGACY_SCENARIO, TestName.all())]
    _check_budget(tasks, SURVEY_MEASURED, "SURVEY_MEASURED", min_packets=1500)


def test_the_sweeps_path_stays_within_its_call_budget():
    tests = (TestName.SINGLE_CONNECTION, TestName.SYN)
    tasks = [_task(index, name, tests) for index, name in enumerate(scenario_names())]
    _check_budget(tasks, SWEEP_MEASURED, "SWEEP_MEASURED", min_packets=6000)
