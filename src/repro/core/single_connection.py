"""The Single Connection Test (paper §III-B).

One TCP connection is established to the remote host.  Each sample has two
phases.  The *preparation* phase creates a sequence hole at the receiver by
sending a slightly out-of-order byte until a duplicate acknowledgment
confirms it has been queued.  The *measurement* phase sends two one-byte
sample packets whose sequence numbers straddle the queued byte; because the
receiver's acknowledgments differ depending on the order in which the sample
packets arrive, the prober can classify forward-path ordering from the
acknowledgment values and reverse-path ordering from the acknowledgments'
arrival order.

By default the sample packets are sent in *reversed* order (the higher
sequence number first), the mitigation the paper describes for the delayed
acknowledgment problem: an out-of-order arrival always triggers an immediate
duplicate ACK, so the common in-order case still produces two prompt
acknowledgments.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from repro.core.probe_connection import ProbeConnection
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.host.raw_socket import CapturedPacket, ProbeHost
from repro.net.errors import MeasurementError, SampleTimeoutError
from repro.net.packet import TcpFlags
from repro.net.seqnum import SEQ_HALF, SEQ_MODULO

TEST_NAME = "single-connection"

# Flags are tested on the int, and seq_add and seq_gt are spelled out: the
# sample loop runs per packet.
_ACK = TcpFlags.ACK.value
_ACK_SYN_RST = int(TcpFlags.ACK | TcpFlags.SYN | TcpFlags.RST)
_ack_of = attrgetter("packet.tcp.ack")
_uid_of = attrgetter("packet.uid")


class SingleConnectionTest:
    """Runs single-connection reordering samples against one remote host."""

    def __init__(
        self,
        probe: ProbeHost,
        remote_addr: int,
        remote_port: int = 80,
        reversed_order: bool = True,
        sample_timeout: float = 1.0,
        prep_timeout: float = 0.5,
        prep_retries: int = 8,
        settle_time: float = 0.3,
    ) -> None:
        self.probe = probe
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.reversed_order = reversed_order
        self.sample_timeout = sample_timeout
        self.prep_timeout = prep_timeout
        self.prep_retries = prep_retries
        self.settle_time = settle_time

    @property
    def name(self) -> str:
        """The test's canonical name."""
        return TEST_NAME

    def run(self, num_samples: int, spacing: float = 0.0) -> MeasurementResult:
        """Collect ``num_samples`` packet-pair samples, optionally spaced apart.

        ``spacing`` is the delay in seconds inserted between the two sample
        packets (the parameter behind the time-domain distribution of
        Figure 7).
        """
        if num_samples < 1:
            raise MeasurementError(f"at least one sample is required: {num_samples}")
        result = MeasurementResult(
            test_name=self.name,
            host_address=self.remote_addr,
            start_time=self.probe.sim.now,
            end_time=self.probe.sim.now,
            spacing=spacing,
        )
        connection = ProbeConnection(self.probe, self.remote_addr, self.remote_port)
        try:
            connection.establish()
        except SampleTimeoutError:
            result.notes = "handshake failed"
            result.end_time = self.probe.sim.now
            return result

        try:
            for index in range(num_samples):
                sample = self._collect_sample(connection, index, spacing)
                result.add(sample)
        finally:
            connection.send_reset()
        result.end_time = self.probe.sim.now
        return result

    # ------------------------------------------------------------------ #
    # Sample collection
    # ------------------------------------------------------------------ #

    def _collect_sample(self, connection: ProbeConnection, index: int, spacing: float) -> ReorderSample:
        # Let stragglers from the previous sample (delayed acknowledgments,
        # packets briefly held by the network) drain before starting a new
        # one, so the classification below only ever sees this sample's acks.
        self._quiesce(connection)
        hole_base = self._prepare_hole(connection)
        if hole_base is None:
            return ReorderSample(
                index=index,
                time=self.probe.sim.now,
                spacing=spacing,
                forward=SampleOutcome.AMBIGUOUS,
                reverse=SampleOutcome.AMBIGUOUS,
                detail="preparation failed",
            )

        cursor = self.probe.capture_cursor()
        sample_time = self.probe.sim.now
        if self.reversed_order:
            first = connection.send_data_at_offset(2, length=1)
            if spacing > 0.0:
                self.probe.sim.run_for(spacing)
            second = connection.send_data_at_offset(0, length=1)
        else:
            first = connection.send_data_at_offset(0, length=1)
            if spacing > 0.0:
                self.probe.sim.run_for(spacing)
            second = connection.send_data_at_offset(2, length=1)

        replies = self.probe.wait_for_packets(
            cursor,
            count=2,
            timeout=self.sample_timeout,
            local_port=connection.local_port,
            remote_addr=self.remote_addr,
        )
        acks = self._pure_acks(replies)
        forward, reverse, detail = self._classify(acks, hole_base)
        response_uids = tuple(map(_uid_of, acks[:2]))
        self._resynchronize(connection, hole_base, acks)

        return ReorderSample(
            index=index,
            time=sample_time,
            spacing=spacing,
            forward=forward,
            reverse=reverse,
            detail=detail,
            probe_uids=(first.uid, second.uid),
            response_uids=response_uids,
        )

    def _quiesce(self, connection: ProbeConnection) -> None:
        """Run the simulator until no more packets arrive for this connection."""
        if self.settle_time <= 0.0:
            return
        for _round in range(self.prep_retries):
            cursor = self.probe.capture_cursor()
            self.probe.sim.run_for(self.settle_time)
            if not self.probe.tcp_packets_since(
                cursor, local_port=connection.local_port, remote_addr=self.remote_addr
            ):
                return

    def _prepare_hole(self, connection: ProbeConnection) -> Optional[int]:
        """Create the sequence hole; return the confirmed hole base, or None.

        The out-of-order preparation byte is re-sent until a duplicate
        acknowledgment confirms it has been queued.  If the receiver turns
        out to be further along than the prober believed (a straggler from an
        earlier sample arrived late), the prober adopts the receiver's view
        and prepares again from there.
        """
        hole_base = connection.state.remote_expected_seq
        for _attempt in range(self.prep_retries):
            cursor = self.probe.capture_cursor()
            connection.send_data_at_offset(1, length=1)
            replies = self.probe.wait_for_packets(
                cursor,
                count=1,
                timeout=self.prep_timeout,
                local_port=connection.local_port,
                remote_addr=self.remote_addr,
            )
            for captured in self._pure_acks(replies):
                ack = captured.packet.tcp.ack
                if ack == hole_base:
                    return hole_base
                if 0 < (ack - hole_base) % SEQ_MODULO <= SEQ_HALF:
                    # The receiver is further along than we believed; adopt
                    # its view and prepare again relative to it.
                    connection.note_remote_progress(ack)
                    hole_base = ack
                    break
        return None

    @staticmethod
    def _pure_acks(replies: tuple[CapturedPacket, ...]) -> list[CapturedPacket]:
        """The replies that are ACKs and neither SYNs nor RSTs."""
        acks = []
        for captured in replies:
            tcp = captured.packet.tcp
            if tcp is not None and int.__and__(tcp.flags, _ACK_SYN_RST) == _ACK:
                acks.append(captured)
        return acks

    def _classify(
        self,
        acks: list[CapturedPacket],
        hole_base: int,
    ) -> tuple[SampleOutcome, SampleOutcome, str]:
        full_ack = (hole_base + 3) % SEQ_MODULO
        filled_marker = (hole_base + 2) % SEQ_MODULO
        in_order_marker = hole_base if self.reversed_order else filled_marker
        reordered_marker = filled_marker if self.reversed_order else hole_base
        values = list(map(_ack_of, acks))

        if not values:
            return SampleOutcome.LOST, SampleOutcome.LOST, "no acknowledgments received"

        if len(values) == 1:
            value = values[0]
            if value == in_order_marker:
                return SampleOutcome.IN_ORDER, SampleOutcome.AMBIGUOUS, "single marker ack"
            if value == reordered_marker:
                return SampleOutcome.REORDERED, SampleOutcome.AMBIGUOUS, "single marker ack"
            return SampleOutcome.AMBIGUOUS, SampleOutcome.AMBIGUOUS, "lone full-series ack"

        relevant = values[:2]
        if in_order_marker in relevant:
            forward = SampleOutcome.IN_ORDER
        elif reordered_marker in relevant:
            forward = SampleOutcome.REORDERED
        else:
            forward = SampleOutcome.AMBIGUOUS

        if full_ack not in relevant or relevant[0] == relevant[1]:
            reverse = SampleOutcome.AMBIGUOUS
        elif relevant[0] == full_ack:
            # The acknowledgment for the whole series was generated second;
            # seeing it first means the acknowledgments were exchanged.
            reverse = SampleOutcome.REORDERED
        else:
            reverse = SampleOutcome.IN_ORDER
        detail = f"acks={relevant}"
        return forward, reverse, detail

    def _resynchronize(
        self,
        connection: ProbeConnection,
        hole_base: int,
        acks: list[CapturedPacket],
    ) -> None:
        """Bring the prober's view of the receiver's expected sequence back in sync.

        In the common case the final acknowledgment covers the whole
        three-byte series; after losses we explicitly fill the range so the
        next sample starts from a clean state.
        """
        full_ack = (hole_base + 3) % SEQ_MODULO
        highest: Optional[int] = None
        for captured in acks:
            ack = captured.packet.tcp.ack
            if highest is None or 0 < (ack - highest) % SEQ_MODULO <= SEQ_HALF:
                highest = ack
        if highest == full_ack:
            connection.note_remote_progress(full_ack)
            return

        for _attempt in range(self.prep_retries):
            cursor = self.probe.capture_cursor()
            connection.send_data_at_offset(0, length=3)
            replies = self.probe.wait_for_packets(
                cursor,
                count=1,
                timeout=self.prep_timeout,
                local_port=connection.local_port,
                remote_addr=self.remote_addr,
            )
            for captured in self._pure_acks(replies):
                ack = captured.packet.tcp.ack
                # seq_ge(ack, full_ack), spelled out.
                if (ack - full_ack) % SEQ_MODULO <= SEQ_HALF:
                    connection.note_remote_progress(ack)
                    return
        # Give up: adopt the highest acknowledgment we have seen.
        connection.note_remote_progress(highest if highest is not None else full_ack)
