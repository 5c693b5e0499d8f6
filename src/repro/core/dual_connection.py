"""The Dual Connection Test (paper §III-C).

Two TCP connections are established to the remote host.  Each sample sends
one out-of-order byte on each connection (sequence number one greater than
the receiver expects), which the receiver acknowledges immediately, avoiding
the delayed-acknowledgment problem of the single-connection test.  Under the
assumption that the remote host stamps outgoing packets from a single,
strictly increasing IPID counter, the IPIDs of the two acknowledgments reveal
the order in which they were generated — and therefore the order in which the
sample packets arrived (forward path) — while the order in which the
acknowledgments reach the probe host reveals reverse-path reordering.

Because the IPID assumption fails for pseudo-random IPIDs, constant-zero
IPIDs, and transparent load balancers, the test validates the host first and
refuses to produce measurements for ineligible hosts.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ipid_validation import (
    IpidValidationReport,
    classify_ipid_sequence,
    collect_ipid_observations,
)
from repro.core.probe_connection import ProbeConnection
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.host.raw_socket import CapturedPacket, ProbeHost
from repro.net.errors import HostNotEligibleError, MeasurementError, SampleTimeoutError
from repro.net.packet import TcpFlags
from repro.net.seqnum import ipid_diff

TEST_NAME = "dual-connection"

_ACK = int(TcpFlags.ACK)
_ACK_SYN_RST = int(TcpFlags.ACK | TcpFlags.SYN | TcpFlags.RST)


class DualConnectionTest:
    """Runs dual-connection reordering samples against one remote host."""

    def __init__(
        self,
        probe: ProbeHost,
        remote_addr: int,
        remote_port: int = 80,
        sample_timeout: float = 1.0,
        validate_ipid: bool = True,
        validation_rounds: int = 6,
    ) -> None:
        self.probe = probe
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.sample_timeout = sample_timeout
        self.validate_ipid = validate_ipid
        self.validation_rounds = validation_rounds
        self.last_validation: Optional[IpidValidationReport] = None

    @property
    def name(self) -> str:
        """The test's canonical name."""
        return TEST_NAME

    def run(self, num_samples: int, spacing: float = 0.0) -> MeasurementResult:
        """Collect ``num_samples`` packet-pair samples, optionally spaced apart.

        Raises
        ------
        HostNotEligibleError
            If IPID validation classifies the host as unusable for this test.
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
        connection_a = ProbeConnection(self.probe, self.remote_addr, self.remote_port)
        connection_b = ProbeConnection(self.probe, self.remote_addr, self.remote_port)
        try:
            connection_a.establish()
            connection_b.establish()
        except SampleTimeoutError:
            result.notes = "handshake failed"
            result.end_time = self.probe.sim.now
            return result

        try:
            if self.validate_ipid:
                observations = collect_ipid_observations(
                    self.probe,
                    connection_a,
                    connection_b,
                    rounds=self.validation_rounds,
                    timeout=self.sample_timeout,
                )
                report = classify_ipid_sequence(observations)
                self.last_validation = report
                if not report.eligible:
                    raise HostNotEligibleError(
                        f"host {self.remote_addr} failed IPID validation: {report.describe()}"
                    )
            for index in range(num_samples):
                sample = self._collect_sample(connection_a, connection_b, index, spacing)
                result.add(sample)
        finally:
            connection_a.send_reset()
            connection_b.send_reset()
        result.end_time = self.probe.sim.now
        return result

    # ------------------------------------------------------------------ #
    # Sample collection
    # ------------------------------------------------------------------ #

    def _collect_sample(
        self,
        connection_a: ProbeConnection,
        connection_b: ProbeConnection,
        index: int,
        spacing: float,
    ) -> ReorderSample:
        probe, remote = self.probe, self.remote_addr
        cursor = probe.capture_cursor()
        sample_time = probe.sim.now
        first = connection_a.send_data_at_offset(1, length=1)
        if spacing > 0.0:
            probe.sim.run_for(spacing)
        second = connection_b.send_data_at_offset(1, length=1)

        # Each capture is folded once, on the wake that captured it; the first
        # pure ACK per connection is kept.
        slot_of = {connection_a.local_port: 0, connection_b.local_port: 1}
        acks: list[Optional[CapturedPacket]] = [None, None]
        scan = cursor

        def _both_acked() -> bool:
            nonlocal scan
            fresh = probe.captured_since(scan)
            scan += len(fresh)
            for captured in fresh:
                packet = captured.packet
                tcp = packet.tcp
                if tcp is None or packet.ip.src != remote:
                    continue
                slot = slot_of.get(tcp.dst_port)
                if (
                    slot is not None
                    and acks[slot] is None
                    and int.__and__(tcp.flags, _ACK_SYN_RST) == _ACK
                ):
                    acks[slot] = captured
            return acks[0] is not None and acks[1] is not None

        # The wait's last act is a predicate check, so ``acks`` is current.
        probe.wait_for_predicate(_both_acked, timeout=self.sample_timeout)
        ack_a, ack_b = acks

        forward, reverse, detail = self._classify(ack_a, ack_b)
        responses = [captured for captured in (ack_a, ack_b) if captured is not None]
        responses.sort(key=lambda captured: captured.serial)
        return ReorderSample(
            index=index,
            time=sample_time,
            spacing=spacing,
            forward=forward,
            reverse=reverse,
            detail=detail,
            probe_uids=(first.uid, second.uid),
            response_uids=tuple(captured.packet.uid for captured in responses),
        )

    @staticmethod
    def _classify(
        ack_a: Optional[CapturedPacket],
        ack_b: Optional[CapturedPacket],
    ) -> tuple[SampleOutcome, SampleOutcome, str]:
        if ack_a is None or ack_b is None:
            return SampleOutcome.LOST, SampleOutcome.LOST, "missing acknowledgment"
        ipid_a = ack_a.packet.ip.ident
        ipid_b = ack_b.packet.ip.ident
        generation_gap = ipid_diff(ipid_b, ipid_a)
        if generation_gap == 0:
            return SampleOutcome.AMBIGUOUS, SampleOutcome.AMBIGUOUS, "identical IPIDs"

        # Connection A's probe was sent first; if its acknowledgment was also
        # generated first the data arrived in order.
        a_generated_first = generation_gap > 0
        forward = SampleOutcome.IN_ORDER if a_generated_first else SampleOutcome.REORDERED

        a_arrived_first = ack_a.serial < ack_b.serial
        if a_generated_first == a_arrived_first:
            reverse = SampleOutcome.IN_ORDER
        else:
            reverse = SampleOutcome.REORDERED
        detail = f"ipids=({ipid_a},{ipid_b})"
        return forward, reverse, detail
