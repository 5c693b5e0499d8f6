"""IP identification-field (IPID) generation policies.

The dual-connection test depends on the remote host using a single, strictly
increasing IPID counter shared across connections (the traditional BSD /
Windows behaviour).  The paper lists the policies that break that assumption:
Linux 2.4 sends IPID 0 when path-MTU discovery disables fragmentation,
OpenBSD generates pseudo-random IPIDs, and Solaris keeps a per-destination
counter (which, as the paper notes, is *not* a problem because the test only
compares IPIDs seen by a single destination).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.net.seqnum import IPID_MODULO
from repro.sim.random import SeededRandom


class IpidPolicy(ABC):
    """Strategy deciding the IPID of each outgoing packet."""

    @abstractmethod
    def next_value(self, dst: int) -> int:
        """Return the IPID for the next packet sent to ``dst``."""

    @property
    def monotonic_per_destination(self) -> bool:
        """Whether IPIDs seen by a single destination increase monotonically."""
        return False


class GlobalCounterIpid(IpidPolicy):
    """The traditional policy: one global counter incremented for every packet."""

    def __init__(self, start: int = 1, increment: int = 1) -> None:
        if not 0 <= start < IPID_MODULO:
            raise ValueError(f"start out of range: {start}")
        if increment < 1:
            raise ValueError(f"increment must be positive: {increment}")
        self._next = start
        self._increment = increment

    def next_value(self, dst: int) -> int:
        del dst
        value = self._next
        self._next = (self._next + self._increment) % IPID_MODULO
        return value

    @property
    def monotonic_per_destination(self) -> bool:
        return True


class PerDestinationIpid(IpidPolicy):
    """Solaris-style policy: an independent counter per destination address."""

    def __init__(self, start: int = 1) -> None:
        if not 0 <= start < IPID_MODULO:
            raise ValueError(f"start out of range: {start}")
        self._start = start
        self._counters: dict[int, int] = {}

    def next_value(self, dst: int) -> int:
        value = self._counters.get(dst, self._start)
        self._counters[dst] = (value + 1) % IPID_MODULO
        return value

    @property
    def monotonic_per_destination(self) -> bool:
        return True


class RandomIpid(IpidPolicy):
    """OpenBSD-style policy: pseudo-random IPID for every packet."""

    def __init__(self, rng: SeededRandom) -> None:
        self._rng = rng

    def next_value(self, dst: int) -> int:
        del dst
        return self._rng.randint(0, IPID_MODULO - 1)


class RandomIncrementIpid(IpidPolicy):
    """A hardened counter that advances by a small random increment.

    Still monotonic between nearby packets, but with unpredictable gaps —
    mentioned by the paper as one of the "alternative schemes for security
    reasons" that must be validated before being trusted.
    """

    def __init__(self, rng: SeededRandom, max_increment: int = 8, start: int = 1) -> None:
        if max_increment < 1:
            raise ValueError(f"max increment must be positive: {max_increment}")
        self._rng = rng
        self._max_increment = max_increment
        self._next = start % IPID_MODULO

    def next_value(self, dst: int) -> int:
        del dst
        value = self._next
        self._next = (self._next + self._rng.randint(1, self._max_increment)) % IPID_MODULO
        return value

    @property
    def monotonic_per_destination(self) -> bool:
        return True


class ConstantZeroIpid(IpidPolicy):
    """Linux 2.4-style policy: IPID is always zero when DF is set."""

    def next_value(self, dst: int) -> int:
        del dst
        return 0


class IpStack:
    """The IP layer of a simulated host: owns the IPID policy.

    A single :class:`IpStack` is shared by every transport entity on the host
    (all TCP connections and the ICMP responder), which is precisely the
    property the dual-connection test exploits and a load-balanced cluster
    violates (each backend has its own stack).
    """

    def __init__(self, address: int, ipid_policy: IpidPolicy) -> None:
        self.address = address
        self._policy = ipid_policy

    @property
    def policy(self) -> IpidPolicy:
        """The IPID policy in force on this host."""
        return self._policy

    def next_ipid(self, dst: int) -> int:
        """Return the IPID to stamp on the next packet sent to ``dst``."""
        return self._policy.next_value(dst)
