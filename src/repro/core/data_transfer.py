"""The TCP Data Transfer Test (paper §III-E).

The baseline point of comparison: fetch the root object from a web server
and watch the order in which the response segments arrive.  The prober
mitigates TCP's congestion-control dynamics by acknowledging the largest
sequence number received (even across holes) and by restricting the
advertised receive window and MSS so the transfer proceeds as a steady
stream of small segments.

The test measures the reverse path only, and its sample count is variable —
one sample per adjacent pair of response segments — which is exactly the
property that motivated the paper's fixed packet-pair tests.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.probe_connection import ProbeConnection
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.host.raw_socket import ProbeHost
from repro.net.errors import MeasurementError, SampleTimeoutError
from repro.net.packet import Packet, TcpFlags
from repro.net.seqnum import SEQ_HALF, SEQ_MODULO

TEST_NAME = "data-transfer"

_SYN_OR_RST = int(TcpFlags.SYN | TcpFlags.RST)
_tuple_new = tuple.__new__


def _carries_data(packet: Packet) -> bool:
    """True for a response segment carrying object data (not a SYN or RST)."""
    tcp = packet.tcp
    assert tcp is not None
    return bool(packet.payload) and not int.__and__(tcp.flags, _SYN_OR_RST)


class ReceivedSegment(NamedTuple):
    """One data segment observed during the transfer.

    A NamedTuple, built with ``tuple.__new__``: one is made per segment
    received, and a tuple is one allocation where a frozen dataclass pays an
    ``object.__setattr__`` per field.
    """

    seq: int
    length: int
    time: float
    serial: int
    uid: int


class DataTransferTest:
    """Fetches an object from the remote host and measures reverse-path reordering."""

    def __init__(
        self,
        probe: ProbeHost,
        remote_addr: int,
        remote_port: int = 80,
        mss: int = 256,
        advertised_window: int = 1024,
        request_size: int = 64,
        quiet_period: float = 1.5,
        transfer_timeout: float = 60.0,
        max_segments: int = 400,
    ) -> None:
        self.probe = probe
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.mss = mss
        self.advertised_window = advertised_window
        self.request_size = request_size
        self.quiet_period = quiet_period
        self.transfer_timeout = transfer_timeout
        self.max_segments = max_segments

    @property
    def name(self) -> str:
        """The test's canonical name."""
        return TEST_NAME

    def run(self, num_samples: int = 0, spacing: float = 0.0) -> MeasurementResult:
        """Fetch the remote object once and classify segment pairs.

        ``num_samples`` caps the number of samples reported (0 means "as many
        as the transfer yields"); only the reported pairs are built, but the
        transfer always runs to completion, so the cap never changes what the
        simulation does.  ``spacing`` is accepted for interface compatibility
        but ignored — the server, not the prober, controls segment spacing,
        which is precisely this test's limitation.

        Raises
        ------
        MeasurementError
            If ``num_samples`` is negative.
        """
        del spacing
        if num_samples < 0:
            raise MeasurementError(f"sample cap cannot be negative: {num_samples}")
        result = MeasurementResult(
            test_name=self.name,
            host_address=self.remote_addr,
            start_time=self.probe.sim.now,
            end_time=self.probe.sim.now,
            spacing=0.0,
        )
        connection = ProbeConnection(
            self.probe,
            self.remote_addr,
            self.remote_port,
            advertised_window=self.advertised_window,
            mss=self.mss,
        )
        try:
            connection.establish()
        except SampleTimeoutError:
            result.notes = "handshake failed"
            result.end_time = self.probe.sim.now
            return result

        cursor = self.probe.capture_cursor()
        connection.send_request(length=self.request_size)
        segments = self._receive_transfer(connection, cursor)
        connection.send_reset()

        for sample in self._classify_segments(segments, num_samples):
            result.add(sample)
        if len(segments) < 2:
            result.notes = "object too small to measure (single segment or redirect)"
        result.end_time = self.probe.sim.now
        return result

    # ------------------------------------------------------------------ #
    # Transfer machinery
    # ------------------------------------------------------------------ #

    def _receive_transfer(self, connection: ProbeConnection, cursor: int) -> list[ReceivedSegment]:
        """Drive the transfer, acknowledging the largest sequence number seen.

        A round waits for a data segment captured after the round began.  The
        wait's scan reaches the end of the capture buffer before it returns,
        so its matches are exactly the data segments captured since the round
        began, and the round folds them without a second scan.  Segments
        captured before the round began but after the previous fold (a
        zero-delay path delivers the server's reply within the probe's own
        send) are folded first; on a path with any delay there are none.  The
        next early fold starts past this wait's last match: whatever the wait
        scanned beyond it failed the same test.
        """
        probe, port, remote = self.probe, connection.local_port, self.remote_addr
        sim = probe.sim
        segments: list[ReceivedSegment] = []
        highest_ack = connection.state.rcv_nxt
        deadline = sim.now + self.transfer_timeout

        while sim.now < deadline and len(segments) < self.max_segments:
            round_start = probe.capture_cursor()
            fresh = probe.wait_for_packets(
                round_start, 1, self.quiet_period, port, remote, match=_carries_data
            )
            if not fresh:
                break
            if cursor < round_start:
                early = probe.tcp_packets_since(cursor, local_port=port, remote_addr=remote)
                fresh = tuple(
                    captured
                    for captured in early
                    if captured.serial < round_start and _carries_data(captured.packet)
                ) + fresh
            cursor = fresh[-1].serial + 1
            for captured in fresh:
                packet = captured.packet
                tcp = packet.tcp
                assert tcp is not None
                seq = tcp.seq
                length = len(packet.payload)
                segments.append(
                    _tuple_new(ReceivedSegment, (seq, length, captured.time, captured.serial, packet.uid))
                )
                # seq_add and seq_gt spelled out: this runs once per segment.
                segment_end = (seq + length) % SEQ_MODULO
                if 0 < (segment_end - highest_ack) % SEQ_MODULO <= SEQ_HALF:
                    highest_ack = segment_end
            # Acknowledge the largest sequence number received so far so the
            # server keeps sending even if intermediate data was lost.
            connection.state.rcv_nxt = highest_ack
            connection.send_ack(highest_ack)
        return segments

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #

    def _classify_segments(self, segments: list[ReceivedSegment], limit: int) -> list[ReorderSample]:
        """Build one sample per adjacent pair of distinct segments in send order.

        Stops after ``limit`` pairs; 0 means every pair.
        """
        if len(segments) < 2:
            return []
        # Deduplicate retransmissions: keep the first arrival of each sequence
        # number, keyed by its offset from the first (seq_diff spelled out).
        base = segments[0].seq
        first_arrival: dict[int, ReceivedSegment] = {}
        for segment in segments:
            offset = (segment.seq - base) % SEQ_MODULO
            if offset > SEQ_HALF:
                offset -= SEQ_MODULO
            if offset not in first_arrival:
                first_arrival[offset] = segment
        ordered = [first_arrival[offset] for offset in sorted(first_arrival)]

        pairs = len(ordered) - 1
        if limit > 0:
            pairs = min(pairs, limit)
        samples: list[ReorderSample] = []
        for index in range(pairs):
            earlier = ordered[index]
            later = ordered[index + 1]
            reordered = later.serial < earlier.serial
            arrival_order = (later.uid, earlier.uid) if reordered else (earlier.uid, later.uid)
            samples.append(
                ReorderSample(
                    index=index,
                    time=later.time,
                    spacing=0.0,
                    forward=SampleOutcome.AMBIGUOUS,
                    reverse=SampleOutcome.REORDERED if reordered else SampleOutcome.IN_ORDER,
                    detail=f"seqs=({earlier.seq},{later.seq})",
                    probe_uids=(earlier.uid, later.uid),
                    response_uids=arrival_order,
                )
            )
        return samples
