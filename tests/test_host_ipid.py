"""Tests for IPID policies and the IP stack."""

from __future__ import annotations

import pytest

from repro.host.ipid import (
    ConstantZeroIpid,
    GlobalCounterIpid,
    IpStack,
    PerDestinationIpid,
    RandomIncrementIpid,
    RandomIpid,
)
from repro.net.seqnum import IPID_MODULO, ipid_diff
from repro.sim.random import SeededRandom

DST_A = 1001
DST_B = 1002


def test_global_counter_increments_across_destinations():
    policy = GlobalCounterIpid(start=10)
    values = [policy.next_value(DST_A), policy.next_value(DST_B), policy.next_value(DST_A)]
    assert values == [10, 11, 12]
    assert policy.monotonic_per_destination


def test_global_counter_wraps():
    policy = GlobalCounterIpid(start=IPID_MODULO - 1)
    assert policy.next_value(DST_A) == IPID_MODULO - 1
    assert policy.next_value(DST_A) == 0


def test_global_counter_validation():
    with pytest.raises(ValueError):
        GlobalCounterIpid(start=IPID_MODULO)
    with pytest.raises(ValueError):
        GlobalCounterIpid(increment=0)


def test_per_destination_counters_are_independent():
    policy = PerDestinationIpid(start=5)
    assert policy.next_value(DST_A) == 5
    assert policy.next_value(DST_B) == 5
    assert policy.next_value(DST_A) == 6
    assert policy.monotonic_per_destination


def test_random_ipid_not_monotonic():
    policy = RandomIpid(SeededRandom(3))
    values = [policy.next_value(DST_A) for _ in range(50)]
    diffs = [ipid_diff(values[i + 1], values[i]) for i in range(len(values) - 1)]
    assert any(diff <= 0 for diff in diffs)
    assert not policy.monotonic_per_destination
    assert all(0 <= v < IPID_MODULO for v in values)


def test_random_increment_is_monotonic_with_gaps():
    policy = RandomIncrementIpid(SeededRandom(4), max_increment=8, start=100)
    values = [policy.next_value(DST_A) for _ in range(50)]
    diffs = [ipid_diff(values[i + 1], values[i]) for i in range(len(values) - 1)]
    assert all(1 <= diff <= 8 for diff in diffs)


def test_random_increment_validation():
    with pytest.raises(ValueError):
        RandomIncrementIpid(SeededRandom(1), max_increment=0)


def test_constant_zero():
    policy = ConstantZeroIpid()
    assert [policy.next_value(DST_A) for _ in range(5)] == [0] * 5
    assert not policy.monotonic_per_destination


def test_ip_stack_delegates_to_its_policy():
    stack = IpStack(address=42, ipid_policy=GlobalCounterIpid(start=7))
    assert stack.next_ipid(DST_A) == 7
    assert stack.next_ipid(DST_A) == 8
    assert stack.policy.monotonic_per_destination
