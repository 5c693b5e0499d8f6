"""Operating-system behaviour profiles for simulated remote hosts.

Each profile bundles the implementation characteristics the measurement
techniques are sensitive to.  The catalogue covers the behaviours the paper
encountered in its 50-host survey: traditional global-counter IPID stacks,
Linux 2.4's constant-zero IPID, OpenBSD's random IPID, Solaris's
per-destination counter, strict-specification and deviant second-SYN
responses, and stacks that do not acknowledge immediately when a hole is
filled (the delayed-ACK pathology of the single-connection test).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.host.ipid import (
    ConstantZeroIpid,
    GlobalCounterIpid,
    IpidPolicy,
    PerDestinationIpid,
    RandomIncrementIpid,
    RandomIpid,
)
from repro.sim.random import SeededRandom


class SecondSynResponse(enum.Enum):
    """How a stack responds to a second SYN for a connection in SYN_RECEIVED."""

    ALWAYS_RST = "rst"
    """The most common behaviour: always answer the second SYN with a RST."""

    SPEC_COMPLIANT = "spec"
    """Follow RFC 793: RST when the SYN is inside the window, pure ACK otherwise."""

    DUAL_RST = "dual_rst"
    """A deviant stack that answers the second SYN with two RST packets."""

    IGNORE = "ignore"
    """A deviant stack that only ever responds to the first SYN."""


class IpidScheme(enum.Enum):
    """How a stack numbers the IPID field; each names one policy factory."""

    GLOBAL_COUNTER = "global-counter"  # one counter for every packet (BSD, Windows)
    PER_DESTINATION = "per-destination"  # one counter per destination (Solaris)
    RANDOM = "random"  # a pseudo-random IPID per packet (OpenBSD)
    RANDOM_INCREMENT = "random-increment"  # small random steps (hardened BSDs)
    ZERO = "zero"  # always zero (Linux 2.4 with path-MTU discovery on)


@dataclass(frozen=True)
class OsProfile:
    """The stack behaviours a simulated host exhibits.

    Parameters
    ----------
    name:
        Human-readable label used in survey output.
    ipid:
        The host's IPID scheme; :meth:`build_ipid_policy` builds its policy
        from a seeded RNG (random policies need their own stream).
    delayed_ack_timeout:
        Maximum time an ACK for in-order data may be delayed, in seconds.
    ack_on_hole_fill:
        Whether a segment that fills a sequence hole is acknowledged
        immediately (RFC 5681 behaviour).  Stacks without it exhibit the
        "single ack 4" ambiguity described in Section III-B.
    second_syn_response:
        Behaviour for the SYN test's second SYN.

    Every stack delays in-order ACKs, acknowledges every second segment,
    answers out-of-order data with an immediate duplicate ACK and advertises
    a 65535-byte window (:mod:`repro.host.tcp_endpoint`).
    """

    name: str
    ipid: IpidScheme
    delayed_ack_timeout: float = 0.2
    ack_on_hole_fill: bool = True
    second_syn_response: SecondSynResponse = SecondSynResponse.ALWAYS_RST

    def build_ipid_policy(self, rng: SeededRandom) -> IpidPolicy:
        """Instantiate this profile's IPID policy."""
        return _IPID_FACTORIES[self.ipid](rng)


_IPID_FACTORIES: dict[IpidScheme, Callable[[SeededRandom], IpidPolicy]] = {
    IpidScheme.GLOBAL_COUNTER: lambda rng: GlobalCounterIpid(start=rng.randint(1, 60000)),
    IpidScheme.PER_DESTINATION: lambda rng: PerDestinationIpid(start=rng.randint(1, 60000)),
    IpidScheme.RANDOM: lambda rng: RandomIpid(rng.fork("ipid")),
    IpidScheme.RANDOM_INCREMENT: lambda rng: RandomIncrementIpid(
        rng.fork("ipid"), max_increment=8, start=rng.randint(1, 60000)
    ),
    IpidScheme.ZERO: lambda rng: ConstantZeroIpid(),
}


FREEBSD_44 = OsProfile(name="freebsd-4.4", ipid=IpidScheme.GLOBAL_COUNTER)

WINDOWS_2000 = OsProfile(
    name="windows-2000",
    ipid=IpidScheme.GLOBAL_COUNTER,
    delayed_ack_timeout=0.2,
)

LINUX_22 = OsProfile(name="linux-2.2", ipid=IpidScheme.GLOBAL_COUNTER)

LINUX_24 = OsProfile(name="linux-2.4", ipid=IpidScheme.ZERO)

OPENBSD_30 = OsProfile(name="openbsd-3.0", ipid=IpidScheme.RANDOM)

SOLARIS_8 = OsProfile(name="solaris-8", ipid=IpidScheme.PER_DESTINATION)

HARDENED_FREEBSD = OsProfile(name="freebsd-random-increment", ipid=IpidScheme.RANDOM_INCREMENT)

SPEC_STRICT = OsProfile(
    name="spec-strict",
    ipid=IpidScheme.GLOBAL_COUNTER,
    second_syn_response=SecondSynResponse.SPEC_COMPLIANT,
)

LEGACY_DELAYED_ACK = OsProfile(
    name="legacy-delayed-ack",
    ipid=IpidScheme.GLOBAL_COUNTER,
    ack_on_hole_fill=False,
    delayed_ack_timeout=0.5,
)

ODDBALL_DUAL_RST = OsProfile(
    name="oddball-dual-rst",
    ipid=IpidScheme.GLOBAL_COUNTER,
    second_syn_response=SecondSynResponse.DUAL_RST,
)

ODDBALL_SILENT_SYN = OsProfile(
    name="oddball-silent-syn",
    ipid=IpidScheme.GLOBAL_COUNTER,
    second_syn_response=SecondSynResponse.IGNORE,
)

OS_PROFILES: dict[str, OsProfile] = {
    profile.name: profile
    for profile in (
        FREEBSD_44,
        WINDOWS_2000,
        LINUX_22,
        LINUX_24,
        OPENBSD_30,
        SOLARIS_8,
        HARDENED_FREEBSD,
        SPEC_STRICT,
        LEGACY_DELAYED_ACK,
        ODDBALL_DUAL_RST,
        ODDBALL_SILENT_SYN,
    )
}
"""All built-in profiles, keyed by name."""


def profile_by_name(name: str) -> OsProfile:
    """Look up a built-in profile by name.

    Raises
    ------
    KeyError
        If no profile with that name exists.
    """
    try:
        return OS_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(OS_PROFILES))
        raise KeyError(f"unknown OS profile {name!r}; known profiles: {known}") from None
