"""The probe host: a sting-style raw packet interface.

The paper implemented its tests "as an extension to the sting tool":
programmable packet filters let a user-level program craft and receive
arbitrary IP packets without the kernel's stack interfering.
:class:`ProbeHost` provides the simulated equivalent — send any packet,
observe every packet arriving at the probe's address with a timestamp — and
is the only interface the measurement techniques in :mod:`repro.core` use.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.net.packet import Packet
from repro.sim.simulator import Simulator, Waiter

TransmitFn = Callable[[Packet], None]
PacketFilter = Callable[[Packet], bool]

_tuple_new = tuple.__new__


def _icmp_filter(remote_addr: Optional[int]) -> PacketFilter:
    """Match ICMP packets from ``remote_addr``."""
    return lambda packet: packet.icmp is not None and (remote_addr is None or packet.ip.src == remote_addr)


class CapturedPacket(NamedTuple):
    """A packet received by the probe host.

    ``serial`` is the capture sequence number: it preserves arrival order even
    when two packets carry identical simulated timestamps (for example after
    an adjacent swap performed at a single instant), so ordering decisions
    should compare serials rather than times.

    A NamedTuple rather than a dataclass: one is constructed per captured
    packet, and tuple construction is markedly cheaper than a frozen
    dataclass's per-field ``object.__setattr__`` init.  The capture path
    builds it with ``tuple.__new__``, skipping the generated ``__new__``.
    """

    time: float
    packet: Packet
    serial: int

    def describe(self) -> str:
        """Return a one-line rendering for logs."""
        return f"{self.time:.9f} #{self.serial} {self.packet.describe()}"


class ProbeHost:
    """The measurement machine: raw send plus timestamped capture.

    Port allocation is centralised here so that concurrently running tests
    (and successive samples of the same test) never collide on a local port.
    """

    def __init__(
        self, sim: Simulator, address: int, transmit: TransmitFn, first_port: int = 33000
    ) -> None:
        self.sim = sim
        """The simulator this probe host lives in.  A plain attribute: every
        technique reads it per sample.  Treat it as read-only."""
        self.address = address
        self._transmit = transmit
        self._received: list[CapturedPacket] = []
        self._waiter = Waiter()
        # The active flow wait (see wait_for_packets): a TCP wait's port,
        # address and match or an ICMP wait's filter, its count and matches.
        self._wait_tcp = False
        self._wait_port: Optional[int] = None
        self._wait_addr: Optional[int] = None
        self._wait_match: Optional[PacketFilter] = None
        self._wait_filter: Optional[PacketFilter] = None
        self._wait_count = 0
        self._wait_matches: list[CapturedPacket] = []
        self._next_port = first_port
        self.packets_sent = 0

    def allocate_port(self) -> int:
        """Return a fresh local TCP source port."""
        port = self._next_port
        self._next_port += 1
        if self._next_port > 65000:
            self._next_port = 33000
        return port

    # ------------------------------------------------------------------ #
    # Send / receive
    # ------------------------------------------------------------------ #

    def send(self, packet: Packet) -> None:
        """Inject a crafted packet into the network."""
        self.packets_sent += 1
        self._transmit(packet)

    def deliver(self, packet: Packet) -> None:
        """Record a packet arriving from the network (the end of every reverse path).

        During a flow wait the packet is matched here (a TCP wait's test is
        :meth:`_tcp_matches_since`'s, written out), and the waiter wakes only
        once the wait has its count; otherwise every capture wakes it.
        """
        ip = packet.ip
        if ip.dst != self.address:
            return
        received = self._received
        captured = _tuple_new(CapturedPacket, (self.sim.now, packet, len(received)))
        received.append(captured)
        if self._wait_tcp:
            tcp = packet.tcp
            if (
                tcp is None
                or (self._wait_port is not None and tcp.dst_port != self._wait_port)
                or (self._wait_addr is not None and ip.src != self._wait_addr)
                or (self._wait_match is not None and not self._wait_match(packet))
            ):
                return
        else:
            wait_filter = self._wait_filter
            if wait_filter is None:
                self._waiter.wake()
                return
            if not wait_filter(packet):
                return
        matches = self._wait_matches
        matches.append(captured)
        if len(matches) >= self._wait_count:
            self._waiter.wake()

    @property
    def received(self) -> tuple[CapturedPacket, ...]:
        """Every packet captured so far, in arrival order."""
        return tuple(self._received)

    def received_count(self) -> int:
        """Number of packets captured so far."""
        return len(self._received)

    def capture_cursor(self) -> int:
        """Return a cursor marking the current end of the capture buffer."""
        return len(self._received)

    def clear_captures(self) -> None:
        """Discard every captured packet and restart the capture serials at 0.

        Cursors taken before the call no longer mean anything.  The owner of
        a finished measurement calls this so the packets are freed at once.
        """
        self._received.clear()

    def captured_since(self, cursor: int) -> tuple[CapturedPacket, ...]:
        """Return packets captured after the given cursor position."""
        return tuple(self._received[cursor:])

    def tcp_packets_since(
        self,
        cursor: int,
        local_port: Optional[int] = None,
        remote_addr: Optional[int] = None,
    ) -> tuple[CapturedPacket, ...]:
        """Return captured TCP packets after ``cursor`` filtered by port / peer."""
        return tuple(self._tcp_matches_since(cursor, local_port, remote_addr, None))

    def icmp_packets_since(self, cursor: int, remote_addr: Optional[int] = None) -> tuple[CapturedPacket, ...]:
        """Return captured ICMP packets after ``cursor`` filtered by peer address."""
        match = _icmp_filter(remote_addr)
        return tuple(captured for captured in self._received[cursor:] if match(captured.packet))

    def _tcp_matches_since(
        self, cursor: int, local_port: Optional[int], remote_addr: Optional[int], match: Optional[PacketFilter]
    ) -> list[CapturedPacket]:
        """TCP packets captured after ``cursor`` to ``local_port`` from ``remote_addr``
        that pass ``match`` (``None`` accepts any)."""
        matches = []
        for captured in self._received[cursor:]:
            packet = captured.packet
            tcp = packet.tcp
            if (
                tcp is not None
                and (local_port is None or tcp.dst_port == local_port)
                and (remote_addr is None or packet.ip.src == remote_addr)
                and (match is None or match(packet))
            ):
                matches.append(captured)
        return matches

    # ------------------------------------------------------------------ #
    # Blocking-style helpers for the measurement techniques
    # ------------------------------------------------------------------ #

    def wait_for_packets(
        self,
        cursor: int,
        count: int,
        timeout: float,
        local_port: Optional[int] = None,
        remote_addr: Optional[int] = None,
        match: Optional[PacketFilter] = None,
    ) -> tuple[CapturedPacket, ...]:
        """Run the simulator until ``count`` matching TCP packets arrive or timeout.

        A packet matches when it is TCP to ``local_port`` from ``remote_addr``
        (``None`` accepts any) and, if given, ``match(packet)`` holds.  Returns
        every match after ``cursor``, which may be fewer than ``count`` on
        timeout — callers decide how to classify incomplete samples.

        This is a flow wait.  Packets captured since ``cursor`` are scanned
        once; from then on :meth:`deliver` matches each packet as it is
        captured and wakes the waiter only when the count is reached, so the
        run loop re-checks the count after exactly the events that can satisfy
        it.  On return the matches are every matching packet after ``cursor``,
        including any captured in the same event as the one that satisfied the
        wait, or up to the deadline on timeout.  The wait then drops its match
        list, so the probe holds no packet for a finished wait.
        """
        matches = self._tcp_matches_since(cursor, local_port, remote_addr, match)
        self._wait_matches = matches
        self._wait_count = count
        self._wait_port = local_port
        self._wait_addr = remote_addr
        self._wait_match = match
        self._wait_tcp = True
        try:
            self.sim.run_until(self._wait_satisfied, timeout=timeout, waiter=self._waiter)
        finally:
            self._wait_tcp = False
            self._wait_match = None
            self._wait_matches = []
        return tuple(matches)

    def wait_for_predicate(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run the simulator until ``predicate`` holds or ``timeout`` elapses.

        The wait is driven by the capture waiter, so ``predicate`` must
        depend only on the probe's capture buffer (true of every measurement
        technique in :mod:`repro.core`).
        """
        return self.sim.run_until(predicate, timeout=timeout, waiter=self._waiter)

    def wait_for_icmp(self, cursor: int, count: int, timeout: float, remote_addr: Optional[int] = None) -> tuple[CapturedPacket, ...]:
        """Run the simulator until ``count`` ICMP packets from ``remote_addr`` arrive or timeout.

        The flow wait of :meth:`wait_for_packets`, with a filter for
        :meth:`deliver` to call.  Returns every match after ``cursor``, which
        may be fewer than ``count``.
        """
        match = _icmp_filter(remote_addr)
        matches = [captured for captured in self._received[cursor:] if match(captured.packet)]
        self._wait_matches = matches
        self._wait_count = count
        self._wait_filter = match
        try:
            self.sim.run_until(self._wait_satisfied, timeout=timeout, waiter=self._waiter)
        finally:
            self._wait_filter = None
            self._wait_matches = []
        return tuple(matches)

    def _wait_satisfied(self) -> bool:
        return len(self._wait_matches) >= self._wait_count
