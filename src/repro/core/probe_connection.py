"""Client-side TCP connection management for the probe host.

The single- and dual-connection tests need an established TCP connection to
the remote host before they can craft their out-of-order probes.  This module
performs the three-way handshake from raw packets, tracks the sequence
numbers both sides expect, and provides the low-level send helpers the tests
use (data at an arbitrary offset from the receiver's expected sequence
number, bare ACKs, and RSTs for clean teardown).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.host.raw_socket import ProbeHost
from repro.net.errors import SampleTimeoutError
from repro.net.packet import DEFAULT_TTL, PROTO_TCP, IPv4Header, Packet, TcpFlags, TcpHeader, TcpOption
from repro.net.seqnum import SEQ_MODULO

DEFAULT_HANDSHAKE_TIMEOUT = 3.0

# Flag combinations built once: ``TcpFlags.X | TcpFlags.Y`` at runtime walks
# the IntFlag machinery to construct a member on every probe sent.
_FLAGS_RST_ACK = TcpFlags.RST | TcpFlags.ACK
_FLAGS_ACK_PSH = TcpFlags.ACK | TcpFlags.PSH
_SYN_ACK = int(TcpFlags.SYN | TcpFlags.ACK)


def _is_syn_ack(packet: Packet) -> bool:
    return int.__and__(packet.tcp.flags, _SYN_ACK) == _SYN_ACK


@dataclass(slots=True)
class ConnectionState:
    """Sequence-number bookkeeping for an established probe connection."""

    local_port: int
    remote_addr: int
    remote_port: int
    iss: int
    snd_nxt: int
    irs: int = 0
    rcv_nxt: int = 0
    remote_expected_seq: int = 0
    established: bool = False


class ProbeConnection:
    """A raw-socket TCP client connection driven by a measurement technique."""

    def __init__(
        self,
        probe: ProbeHost,
        remote_addr: int,
        remote_port: int = 80,
        advertised_window: int = 65535,
        mss: Optional[int] = None,
        initial_seq: Optional[int] = None,
    ) -> None:
        self._probe = probe
        self.advertised_window = advertised_window
        self.mss = mss
        iss = initial_seq if initial_seq is not None else 1_000 + probe.allocate_port() * 7
        self.local_port = probe.allocate_port()
        """The probe-side source port of this connection."""
        self.state = ConnectionState(
            local_port=self.local_port,
            remote_addr=remote_addr,
            remote_port=remote_port,
            iss=iss,
            snd_nxt=(iss + 1) % SEQ_MODULO,
        )
        # Every packet of this connection carries the same IP header, so it
        # is built, and range-checked, once: headers are immutable tuples.
        self._ip = IPv4Header(probe.address, remote_addr, PROTO_TCP, 0, DEFAULT_TTL)

    @property
    def remote_addr(self) -> int:
        """The remote host address."""
        return self.state.remote_addr

    @property
    def established(self) -> bool:
        """True after a successful three-way handshake."""
        return self.state.established

    # ------------------------------------------------------------------ #
    # Packet construction
    # ------------------------------------------------------------------ #

    def _send(
        self, flags: TcpFlags, seq: int, ack: int, payload: bytes = b"", options: tuple[TcpOption, ...] = ()
    ) -> Packet:
        """Build one segment of this connection, send it, and return it."""
        header = TcpHeader(
            self.local_port, self.state.remote_port, seq, ack, flags, self.advertised_window, 0, options
        )
        packet = Packet(self._ip, header, None, payload)
        self._probe.send(packet)
        return packet

    # ------------------------------------------------------------------ #
    # Handshake and teardown
    # ------------------------------------------------------------------ #

    def send_syn(self, seq: Optional[int] = None) -> Packet:
        """Send a SYN (used directly by the SYN test, and by establish())."""
        options: tuple[TcpOption, ...] = ()
        if self.mss is not None:
            options = (TcpOption.mss(self.mss),)
        return self._send(TcpFlags.SYN, seq if seq is not None else self.state.iss, 0, options=options)

    def establish(self, timeout: float = DEFAULT_HANDSHAKE_TIMEOUT) -> None:
        """Perform the full three-way handshake.

        Raises
        ------
        SampleTimeoutError
            If no SYN/ACK arrives within ``timeout`` seconds.
        """
        cursor = self._probe.capture_cursor()
        self.send_syn()
        replies = self._probe.wait_for_packets(
            cursor,
            count=1,
            timeout=timeout,
            local_port=self.local_port,
            remote_addr=self.state.remote_addr,
            match=_is_syn_ack,
        )
        if not replies:
            raise SampleTimeoutError(
                f"no SYN/ACK from {self.state.remote_addr}:{self.state.remote_port} "
                f"within {timeout} s"
            )
        syn_ack = replies[0].packet.tcp
        state = self.state
        state.irs = syn_ack.seq
        state.rcv_nxt = (syn_ack.seq + 1) % SEQ_MODULO
        state.remote_expected_seq = (state.iss + 1) % SEQ_MODULO
        state.established = True
        self.send_ack()

    def send_ack(self, ack: Optional[int] = None) -> Packet:
        """Send a bare ACK (defaults to acknowledging everything received)."""
        state = self.state
        return self._send(TcpFlags.ACK, state.snd_nxt, ack if ack is not None else state.rcv_nxt)

    def send_reset(self) -> Packet:
        """Send a RST to tear down the connection at the remote host."""
        state = self.state
        state.established = False
        return self._send(_FLAGS_RST_ACK, state.snd_nxt, state.rcv_nxt)

    # ------------------------------------------------------------------ #
    # Measurement probes
    # ------------------------------------------------------------------ #

    def send_data_at_offset(self, offset: int, length: int = 1, ack: Optional[int] = None) -> Packet:
        """Send ``length`` bytes of data whose sequence number is the remote
        host's expected sequence number plus ``offset``.

        ``offset=0`` is in-order data, ``offset=1`` creates / targets the
        sequence hole used by the single- and dual-connection tests.
        """
        state = self.state
        return self._send(
            _FLAGS_ACK_PSH,
            (state.remote_expected_seq + offset) % SEQ_MODULO,
            ack if ack is not None else state.rcv_nxt,
            b"\x00" * length,
        )

    def send_request(self, length: int = 64) -> Packet:
        """Send an HTTP-style GET request (the data-transfer test's trigger) and
        advance the local notion of what the remote host now expects."""
        request = b"GET / HTTP/1.0\r\n\r\n"
        if length > len(request):
            request = request + b" " * (length - len(request))
        state = self.state
        packet = self._send(_FLAGS_ACK_PSH, state.remote_expected_seq, state.rcv_nxt, request)
        state.remote_expected_seq = (state.remote_expected_seq + len(request)) % SEQ_MODULO
        state.snd_nxt = (state.snd_nxt + len(request)) % SEQ_MODULO
        return packet

    def note_remote_progress(self, new_expected: int) -> None:
        """Record that the remote host now expects ``new_expected`` (learned from its ACKs)."""
        self.state.remote_expected_seq = new_expected
