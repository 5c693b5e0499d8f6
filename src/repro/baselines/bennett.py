"""Bennett-style ICMP burst baseline (paper §II).

Bennett, Partridge and Shectman measured reordering by sending bursts of ICMP
echo requests and inspecting the order of the echo replies.  They reported
(a) the fraction of bursts experiencing at least one reordering event (for
bursts of five 56-byte packets) and (b) a synthetic metric counting how many
SACK blocks would be needed to describe the out-of-order replies of larger
bursts.

Both metrics are reproduced here, along with the methodology's documented
weaknesses: it cannot attribute reordering to the forward or reverse path,
and ICMP filtering or rate limiting silently removes samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.host.raw_socket import ProbeHost
from repro.net.errors import MeasurementError
from repro.net.packet import ICMP_ECHO_REQUEST, IcmpEcho, Packet
from repro.stats.intervals import BinomialEstimate, binomial_estimate


@dataclass(frozen=True, slots=True)
class BennettBurstResult:
    """The outcome of one ICMP echo burst."""

    host_address: int
    burst_size: int
    replies_received: int
    reordered: bool
    exchanges: int
    sack_blocks: int


@dataclass(slots=True)
class BennettSummary:
    """Aggregate burst statistics for one host or one set of hosts."""

    bursts: list[BennettBurstResult] = field(default_factory=list)

    def add(self, burst: BennettBurstResult) -> None:
        """Append one burst result."""
        self.bursts.append(burst)

    def burst_count(self) -> int:
        """Number of bursts sent."""
        return len(self.bursts)

    def usable_bursts(self) -> list[BennettBurstResult]:
        """Bursts with at least two replies (the minimum needed to order anything)."""
        return [burst for burst in self.bursts if burst.replies_received >= 2]

    def bursts_with_reordering(self) -> BinomialEstimate:
        """Fraction of usable bursts that saw at least one reordering event."""
        usable = self.usable_bursts()
        if not usable:
            raise MeasurementError("no usable bursts (ICMP may be filtered)")
        reordered = sum(1 for burst in usable if burst.reordered)
        return binomial_estimate(reordered, len(usable))

    def mean_sack_blocks(self) -> float:
        """Mean of the SACK-block metric over usable bursts."""
        usable = self.usable_bursts()
        if not usable:
            raise MeasurementError("no usable bursts (ICMP may be filtered)")
        return sum(burst.sack_blocks for burst in usable) / len(usable)

    def loss_fraction(self) -> float:
        """Fraction of probes that never produced a reply."""
        sent = sum(burst.burst_size for burst in self.bursts)
        received = sum(burst.replies_received for burst in self.bursts)
        if sent == 0:
            return 0.0
        return 1.0 - received / sent


def sack_blocks_needed(arrival_sequence: Sequence[int]) -> int:
    """Number of SACK blocks needed to describe the out-of-order arrivals.

    The receiver acknowledges the highest in-order sequence number; every
    maximal run of contiguous sequence numbers received above a gap requires
    one SACK block.  This mirrors the synthetic metric of Bennett et al.
    """
    if not arrival_sequence:
        return 0
    received: set[int] = set()
    next_expected = 0
    blocks = 0
    for value in arrival_sequence:
        received.add(value)
        while next_expected in received:
            next_expected += 1
        above = sorted(v for v in received if v > next_expected)
        runs = 0
        previous = None
        for v in above:
            if previous is None or v != previous + 1:
                runs += 1
            previous = v
        blocks = max(blocks, runs)
    return blocks


class BennettProbe:
    """Sends ICMP echo bursts and analyses the reply order."""

    def __init__(
        self,
        probe: ProbeHost,
        burst_size: int = 5,
        payload_size: int = 56,
        reply_timeout: float = 2.0,
        identifier: int = 0x4242,
    ) -> None:
        if burst_size < 2:
            raise MeasurementError(f"burst size must be at least 2: {burst_size}")
        self.probe = probe
        self.burst_size = burst_size
        self.payload_size = payload_size
        self.reply_timeout = reply_timeout
        self.identifier = identifier
        self._next_sequence = 0

    def send_burst(self, host_address: int) -> BennettBurstResult:
        """Send one burst of echo requests and classify the reply order."""
        cursor = self.probe.capture_cursor()
        sequences = []
        for _ in range(self.burst_size):
            sequence = self._next_sequence & 0xFFFF
            self._next_sequence += 1
            sequences.append(sequence)
            echo = IcmpEcho(
                icmp_type=ICMP_ECHO_REQUEST,
                identifier=self.identifier,
                sequence=sequence,
                payload=bytes(self.payload_size),
            )
            self.probe.send(Packet.icmp_packet(src=self.probe.address, dst=host_address, icmp=echo))

        replies = self.probe.wait_for_icmp(
            cursor, count=self.burst_size, timeout=self.reply_timeout, remote_addr=host_address
        )
        reply_positions = []
        for captured in replies:
            icmp = captured.packet.icmp
            assert icmp is not None
            if icmp.identifier != self.identifier or icmp.sequence not in sequences:
                continue
            reply_positions.append(sequences.index(icmp.sequence))

        exchanges = sum(
            1
            for i in range(len(reply_positions))
            for j in range(i + 1, len(reply_positions))
            if reply_positions[i] > reply_positions[j]
        )
        return BennettBurstResult(
            host_address=host_address,
            burst_size=self.burst_size,
            replies_received=len(reply_positions),
            reordered=exchanges > 0,
            exchanges=exchanges,
            sack_blocks=sack_blocks_needed(reply_positions),
        )

    def run(self, host_address: int, bursts: int, inter_burst_gap: float = 0.2) -> BennettSummary:
        """Send ``bursts`` bursts to one host with a fixed gap between them."""
        if bursts < 1:
            raise MeasurementError(f"need at least one burst: {bursts}")
        summary = BennettSummary()
        for index in range(bursts):
            summary.add(self.send_burst(host_address))
            if inter_burst_gap > 0.0 and index < bursts - 1:
                self.probe.sim.run_for(inter_burst_gap)
        return summary
