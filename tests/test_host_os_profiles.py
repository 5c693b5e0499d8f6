"""Tests for the OS behaviour profile catalogue."""

from __future__ import annotations

import pytest

from repro.host.ipid import ConstantZeroIpid, GlobalCounterIpid, PerDestinationIpid, RandomIpid
from repro.host.os_profiles import (
    FREEBSD_44,
    LINUX_24,
    OPENBSD_30,
    OS_PROFILES,
    SOLARIS_8,
    IpidScheme,
    OsProfile,
    SecondSynResponse,
    profile_by_name,
)
from repro.host.tcp_endpoint import DELAYED_ACK_THRESHOLD
from repro.sim.random import SeededRandom


def test_catalogue_is_keyed_by_name():
    for name, profile in OS_PROFILES.items():
        assert profile.name == name


def test_profile_by_name_lookup_and_error():
    assert profile_by_name("freebsd-4.4") is FREEBSD_44
    with pytest.raises(KeyError):
        profile_by_name("plan9")


def test_ipid_policy_families():
    rng = SeededRandom(1)
    assert isinstance(FREEBSD_44.build_ipid_policy(rng), GlobalCounterIpid)
    assert isinstance(LINUX_24.build_ipid_policy(rng), ConstantZeroIpid)
    assert isinstance(OPENBSD_30.build_ipid_policy(rng), RandomIpid)
    assert isinstance(SOLARIS_8.build_ipid_policy(rng), PerDestinationIpid)


#: Each built-in profile's IPID policy and its first four IPIDs (to hosts
#: 1, 1, 2, 1) from ``SeededRandom(3)``, as they were when a profile held
#: its policy factory itself rather than an :class:`IpidScheme`.
_IPID_SEQUENCES = {
    "freebsd-4.4": ("GlobalCounterIpid", [15596, 15597, 15598, 15599]),
    "windows-2000": ("GlobalCounterIpid", [15596, 15597, 15598, 15599]),
    "linux-2.2": ("GlobalCounterIpid", [15596, 15597, 15598, 15599]),
    "linux-2.4": ("ConstantZeroIpid", [0, 0, 0, 0]),
    "openbsd-3.0": ("RandomIpid", [20486, 31718, 25203, 16089]),
    "solaris-8": ("PerDestinationIpid", [15596, 15597, 15596, 15598]),
    "freebsd-random-increment": ("RandomIncrementIpid", [15596, 15599, 15603, 15607]),
    "spec-strict": ("GlobalCounterIpid", [15596, 15597, 15598, 15599]),
    "legacy-delayed-ack": ("GlobalCounterIpid", [15596, 15597, 15598, 15599]),
    "oddball-dual-rst": ("GlobalCounterIpid", [15596, 15597, 15598, 15599]),
    "oddball-silent-syn": ("GlobalCounterIpid", [15596, 15597, 15598, 15599]),
}


@pytest.mark.parametrize("name", sorted(_IPID_SEQUENCES))
def test_every_profile_builds_its_pinned_ipid_sequence(name):
    policy = OS_PROFILES[name].build_ipid_policy(SeededRandom(3))
    values = [policy.next_value(destination) for destination in (1, 1, 2, 1)]
    assert (type(policy).__name__, values) == _IPID_SEQUENCES[name]


def test_every_ipid_scheme_names_a_policy():
    rng = SeededRandom(1)
    built = {type(OsProfile("x", scheme).build_ipid_policy(rng)) for scheme in IpidScheme}
    assert len(built) == len(IpidScheme)
    assert set(_IPID_SEQUENCES) == set(OS_PROFILES)


def test_ipid_policy_start_is_seed_dependent_but_deterministic():
    policy_a = FREEBSD_44.build_ipid_policy(SeededRandom(5))
    policy_b = FREEBSD_44.build_ipid_policy(SeededRandom(5))
    assert policy_a.next_value(1) == policy_b.next_value(1)


def test_second_syn_response_values_covered():
    responses = {profile.second_syn_response for profile in OS_PROFILES.values()}
    assert SecondSynResponse.ALWAYS_RST in responses
    assert SecondSynResponse.SPEC_COMPLIANT in responses
    assert SecondSynResponse.DUAL_RST in responses
    assert SecondSynResponse.IGNORE in responses


def test_delayed_ack_defaults_sane():
    for profile in OS_PROFILES.values():
        assert 0.0 < profile.delayed_ack_timeout <= 0.5
    assert DELAYED_ACK_THRESHOLD >= 1


def test_legacy_profile_lacks_hole_fill_ack():
    legacy = profile_by_name("legacy-delayed-ack")
    assert not legacy.ack_on_hole_fill
    assert sum(1 for p in OS_PROFILES.values() if p.ack_on_hole_fill) >= 8
