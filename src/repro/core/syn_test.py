"""The SYN Test (paper §III-D).

Transparent load balancers defeat the dual-connection test because each
connection may be served by a different backend with its own IPID counter.
Load balancers, however, must keep all packets of one flow on one backend, so
the SYN test sends a *pair of SYN packets on the same four-tuple*, differing
only in their initial sequence numbers.

The first SYN to arrive puts the backend in SYN_RECEIVED and elicits a
SYN/ACK; the acknowledgment number of that SYN/ACK identifies which of the
two SYNs arrived first, giving forward-path ordering.  The second SYN to
arrive elicits a second response (a RST on most stacks, a pure ACK on
specification-strict stacks when the SYN is old); because that response is
generated after the SYN/ACK, observing it arrive *before* the SYN/ACK reveals
reverse-path reordering.

After classification the prober completes and closes the connection (the
"politeness" measure the paper describes to avoid resembling a SYN flood).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from repro.core.probe_connection import ProbeConnection
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.host.raw_socket import CapturedPacket, ProbeHost
from repro.net.errors import MeasurementError
from repro.net.packet import TcpFlags
from repro.net.seqnum import SEQ_MODULO

TEST_NAME = "syn"

# Flags are tested on the int, and seq_add is spelled out: the sample loop
# runs per packet.
_SYN_ACK = int(TcpFlags.SYN | TcpFlags.ACK)
_ACK_OR_RST = int(TcpFlags.ACK | TcpFlags.RST)
_uid_of = attrgetter("packet.uid")


class SynTest:
    """Runs SYN-pair reordering samples against one remote host."""

    def __init__(
        self,
        probe: ProbeHost,
        remote_addr: int,
        remote_port: int = 80,
        sample_timeout: float = 1.0,
        sequence_offset: int = 64,
        polite: bool = True,
        inter_sample_gap: float = 0.05,
    ) -> None:
        if sequence_offset <= 0:
            raise MeasurementError(f"sequence offset must be positive: {sequence_offset}")
        self.probe = probe
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.sample_timeout = sample_timeout
        self.sequence_offset = sequence_offset
        self.polite = polite
        self.inter_sample_gap = inter_sample_gap

    @property
    def name(self) -> str:
        """The test's canonical name."""
        return TEST_NAME

    def run(self, num_samples: int, spacing: float = 0.0) -> MeasurementResult:
        """Collect ``num_samples`` SYN-pair samples, optionally spaced apart."""
        if num_samples < 1:
            raise MeasurementError(f"at least one sample is required: {num_samples}")
        result = MeasurementResult(
            test_name=self.name,
            host_address=self.remote_addr,
            start_time=self.probe.sim.now,
            end_time=self.probe.sim.now,
            spacing=spacing,
        )
        for index in range(num_samples):
            result.add(self._collect_sample(index, spacing))
            if self.inter_sample_gap > 0.0:
                # Rate-limit SYN generation, as the paper's tool does.
                self.probe.sim.run_for(self.inter_sample_gap)
        result.end_time = self.probe.sim.now
        return result

    # ------------------------------------------------------------------ #
    # Sample collection
    # ------------------------------------------------------------------ #

    def _collect_sample(self, index: int, spacing: float) -> ReorderSample:
        connection = ProbeConnection(self.probe, self.remote_addr, self.remote_port)
        first_seq = connection.state.iss
        second_seq = (first_seq + self.sequence_offset) % SEQ_MODULO

        cursor = self.probe.capture_cursor()
        sample_time = self.probe.sim.now
        first = connection.send_syn(seq=first_seq)
        if spacing > 0.0:
            self.probe.sim.run_for(spacing)
        second = connection.send_syn(seq=second_seq)

        replies = self.probe.wait_for_packets(
            cursor,
            count=2,
            timeout=self.sample_timeout,
            local_port=connection.local_port,
            remote_addr=self.remote_addr,
        )
        forward, reverse, detail = self._classify(replies, first_seq, second_seq)
        self._clean_up(connection, replies)

        return ReorderSample(
            index=index,
            time=sample_time,
            spacing=spacing,
            forward=forward,
            reverse=reverse,
            detail=detail,
            probe_uids=(first.uid, second.uid),
            response_uids=tuple(map(_uid_of, replies[:2])),
        )

    def _classify(
        self,
        replies: tuple[CapturedPacket, ...],
        first_seq: int,
        second_seq: int,
    ) -> tuple[SampleOutcome, SampleOutcome, str]:
        syn_ack: Optional[CapturedPacket] = None
        other: Optional[CapturedPacket] = None
        for captured in replies:
            flags = captured.packet.tcp.flags
            if int.__and__(flags, _SYN_ACK) == _SYN_ACK and syn_ack is None:
                syn_ack = captured
            elif other is None and int.__and__(flags, _ACK_OR_RST):
                other = captured

        if syn_ack is None:
            if not replies:
                return SampleOutcome.LOST, SampleOutcome.LOST, "no responses"
            return SampleOutcome.AMBIGUOUS, SampleOutcome.AMBIGUOUS, "no SYN/ACK observed"

        syn_ack_tcp = syn_ack.packet.tcp
        if syn_ack_tcp.ack == (first_seq + 1) % SEQ_MODULO:
            forward = SampleOutcome.IN_ORDER
        elif syn_ack_tcp.ack == (second_seq + 1) % SEQ_MODULO:
            forward = SampleOutcome.REORDERED
        else:
            forward = SampleOutcome.AMBIGUOUS

        if other is None:
            reverse = SampleOutcome.AMBIGUOUS
        elif other.serial < syn_ack.serial:
            # The second response was generated after the SYN/ACK; seeing it
            # first means the replies were exchanged on the reverse path.
            reverse = SampleOutcome.REORDERED
        else:
            reverse = SampleOutcome.IN_ORDER
        detail = f"syn-ack acks {syn_ack_tcp.ack}"
        return forward, reverse, detail

    def _clean_up(self, connection: ProbeConnection, replies: tuple[CapturedPacket, ...]) -> None:
        """Complete the handshake (politeness) and reset the connection state."""
        syn_ack_tcp = None
        for captured in replies:
            tcp = captured.packet.tcp
            if int.__and__(tcp.flags, _SYN_ACK) == _SYN_ACK:
                syn_ack_tcp = tcp
                break
        if syn_ack_tcp is not None:
            state = connection.state
            state.irs = syn_ack_tcp.seq
            state.rcv_nxt = (syn_ack_tcp.seq + 1) % SEQ_MODULO
            state.snd_nxt = syn_ack_tcp.ack
            state.established = True
            if self.polite:
                connection.send_ack()
        connection.send_reset()
