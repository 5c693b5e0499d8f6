"""A server-side TCP state machine with the behaviours the tests rely on.

This is not a full TCP implementation; it is the subset of receiver behaviour
the paper's measurement techniques leverage, modelled explicitly and
configurably:

* three-way handshake (SYN -> SYN/ACK -> ACK);
* immediate duplicate ACK for out-of-order or duplicate data (required for
  fast retransmit, exploited by every test);
* delayed ACK for in-order data, with a per-profile timeout, an ACK for
  every second segment, and the optional "ACK immediately when a hole is
  filled" refinement (RFC 5681) whose absence causes the single-connection
  test's ambiguity;
* configurable response to a second SYN on a half-open connection (RST,
  specification-compliant RST/ACK choice, dual RST, or silence) for the SYN
  test;
* simple data transfer with segmentation bounded by the peer's advertised
  MSS and receive window plus timeout retransmission, for the TCP
  data-transfer test.

Every transmitted packet is stamped with an IPID drawn from the host's shared
:class:`~repro.host.ipid.IpStack`, which is what the dual-connection test
measures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.host.ipid import IpStack
from repro.host.os_profiles import OsProfile, SecondSynResponse
from repro.net.errors import TcpStateError
from repro.net.packet import PROTO_TCP, IPv4Header, Packet, PricedOptions, TcpFlags, TcpHeader, TcpOption
from repro.net.seqnum import SEQ_HALF, SEQ_MODULO, seq_diff
from repro.sim.events import Event
from repro.sim.random import SeededRandom
from repro.sim.simulator import Simulator

TransmitFn = Callable[[Packet], None]

DEFAULT_MSS = 1460
RETRANSMIT_TIMEOUT = 1.0
DELAYED_ACK_THRESHOLD = 2  # unacknowledged in-order segments that force an ACK

# Flag combinations used on the segment send/receive hot paths, built once:
# every ``TcpFlags.X | TcpFlags.Y`` at runtime walks the IntFlag machinery to
# construct a member, which showed up prominently in campaign profiles.
_FLAGS_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
_FLAGS_FIN_ACK = TcpFlags.FIN | TcpFlags.ACK
_FLAGS_RST_ACK = TcpFlags.RST | TcpFlags.ACK
_FLAGS_ACK_PSH = TcpFlags.ACK | TcpFlags.PSH
_SYN = TcpFlags.SYN.value
_ACK = TcpFlags.ACK.value
_RST = TcpFlags.RST.value
_FIN = TcpFlags.FIN.value
_MSS_OPTIONS = PricedOptions((TcpOption.mss(DEFAULT_MSS),))

ConnectionKey = tuple[int, int, int, int]
"""The four-tuple of a peer's segments as plain ints: (peer address, peer
port, local address, local port)."""


class TcpState(enum.Enum):
    """Connection states the endpoint distinguishes."""

    LISTEN = "listen"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    CLOSED = "closed"


@dataclass
class TcpConnection:
    """Per-connection state, keyed by the remote peer's four-tuple."""

    key: ConnectionKey
    state: TcpState
    irs: int
    rcv_nxt: int
    iss: int
    snd_nxt: int
    snd_una: int
    peer_window: int = 65535
    peer_mss: int = DEFAULT_MSS
    advertised_window: int = 65535
    out_of_order: dict[int, int] = field(default_factory=dict)
    delayed_ack_pending: int = 0
    delayed_ack_event: Optional[Event] = None
    retransmit_event: Optional[Event] = None
    app_bytes_queued: int = 0
    app_bytes_sent: int = 0
    syn_packets_seen: int = 1
    acks_sent: int = 0
    segments_received: int = 0

    def bytes_in_flight(self) -> int:
        """Unacknowledged payload bytes currently outstanding."""
        return seq_diff(self.snd_nxt, self.snd_una)


class TcpEndpoint:
    """The TCP layer of a simulated remote host.

    Parameters
    ----------
    sim:
        The simulator providing time and timers.
    stack:
        The host's IP layer (shared IPID counter).
    profile:
        The OS behaviour profile.
    rng:
        Seeded randomness used for initial sequence number selection.
    transmit:
        Sends a packet toward the probe host (the site's reverse path).
    listen_ports:
        TCP ports accepting new connections.
    on_data:
        Optional application callback ``(endpoint, connection, payload)``
        invoked when in-order data is delivered (used by the web server).
    """

    def __init__(
        self,
        sim: Simulator,
        stack: IpStack,
        profile: OsProfile,
        rng: SeededRandom,
        transmit: TransmitFn,
        listen_ports: tuple[int, ...] = (80,),
        on_data: Optional[Callable[["TcpEndpoint", TcpConnection, bytes], None]] = None,
    ) -> None:
        self._sim = sim
        self.address = stack.address
        """The host address this endpoint answers for."""
        self._profile = profile
        self._rng = rng
        self._listen_ports = set(listen_ports)
        self._transmit = transmit
        self._next_ipid = stack.policy.next_value
        """The shared IPID policy's own ``next_value``: one frame per packet sent."""
        self._on_data = on_data
        # The receive path looks a connection up per packet by the ints its
        # headers hold.
        self._connections: dict[ConnectionKey, TcpConnection] = {}
        self.packets_received = 0
        self.packets_sent = 0
        self.resets_sent = 0
        self.connections_accepted = 0

    @property
    def profile(self) -> OsProfile:
        """The OS behaviour profile in force."""
        return self._profile

    @property
    def connections(self) -> dict[ConnectionKey, TcpConnection]:
        """A copy of the live connections, keyed by the peer's four-tuple."""
        return dict(self._connections)

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def deliver(self, packet: Packet) -> None:
        """Accept a packet arriving from the network."""
        tcp = packet.tcp
        ip = packet.ip
        if tcp is None or ip.dst != self.address:
            return
        self.packets_received += 1
        key = (ip.src, tcp.src_port, ip.dst, tcp.dst_port)
        connection = self._connections.get(key)
        flags = int(tcp.flags)

        if flags & _RST:
            if connection is not None:
                self._close(connection)
            return

        if flags & _SYN and not flags & _ACK:
            self._handle_syn(key, tcp, connection)
            return

        if connection is None:
            # A non-SYN segment for an unknown connection: answer with RST so
            # misbehaving probes notice, as real stacks do.
            if tcp.dst_port in self._listen_ports:
                self._send_reset(key, seq=tcp.ack, ack=(tcp.seq + len(packet.payload)) % SEQ_MODULO)
            return

        connection.segments_received += 1
        if flags & _ACK:
            self._handle_ack(connection, tcp)
        if packet.payload:
            self._handle_data(connection, tcp, packet.payload)
        if flags & _FIN:
            self._handle_fin(connection, tcp, payload_length=len(packet.payload))

    def _handle_syn(self, key: ConnectionKey, tcp: TcpHeader, connection: Optional[TcpConnection]) -> None:
        if tcp.dst_port not in self._listen_ports:
            self._send_reset(key, seq=0, ack=(tcp.seq + 1) % SEQ_MODULO)
            return
        if connection is None or connection.state == TcpState.CLOSED:
            self._accept_connection(key, tcp)
            return
        connection.syn_packets_seen += 1
        self._handle_second_syn(connection, tcp)

    def _accept_connection(self, key: ConnectionKey, tcp: TcpHeader) -> None:
        iss = self._rng.randint(1_000_000, 0xFFFF0000)
        snd_nxt = (iss + 1) % SEQ_MODULO
        connection = TcpConnection(
            key=key,
            state=TcpState.SYN_RECEIVED,
            irs=tcp.seq,
            rcv_nxt=(tcp.seq + 1) % SEQ_MODULO,
            iss=iss,
            snd_nxt=snd_nxt,
            snd_una=snd_nxt,
            peer_window=tcp.window,
            peer_mss=(tcp.mss() or DEFAULT_MSS) if tcp.options else DEFAULT_MSS,
        )
        self._connections[key] = connection
        self.connections_accepted += 1
        self._send_segment(
            connection,
            flags=_FLAGS_SYN_ACK,
            seq=iss,
            ack=connection.rcv_nxt,
            options=_MSS_OPTIONS,
        )

    def _handle_second_syn(self, connection: TcpConnection, tcp: TcpHeader) -> None:
        response = self._profile.second_syn_response
        if response is SecondSynResponse.IGNORE:
            return
        syn_end = (tcp.seq + 1) % SEQ_MODULO
        if response is SecondSynResponse.ALWAYS_RST:
            self._send_reset(connection.key, seq=connection.snd_nxt, ack=syn_end)
            return
        if response is SecondSynResponse.DUAL_RST:
            self._send_reset(connection.key, seq=connection.snd_nxt, ack=syn_end)
            self._send_reset(connection.key, seq=connection.snd_nxt, ack=syn_end)
            return
        if response is SecondSynResponse.SPEC_COMPLIANT:
            # RFC 793: a SYN in the receive window on a half-open connection is
            # answered with a reset; an old (below-window) SYN gets a pure ACK.
            # seq_ge(tcp.seq, rcv_nxt), spelled out.
            if (tcp.seq - connection.rcv_nxt) % SEQ_MODULO <= SEQ_HALF:
                self._send_reset(connection.key, seq=connection.snd_nxt, ack=syn_end)
            else:
                self._send_segment(
                    connection,
                    flags=TcpFlags.ACK,
                    seq=connection.snd_nxt,
                    ack=connection.rcv_nxt,
                )
            return
        raise TcpStateError(f"unhandled second-SYN response: {response}")

    def _handle_ack(self, connection: TcpConnection, tcp: TcpHeader) -> None:
        # seq_ge/seq_gt(ack, snd_una) and seq_le(ack, snd_nxt), spelled out.
        ack = tcp.ack
        advance = (ack - connection.snd_una) % SEQ_MODULO
        if connection.state == TcpState.SYN_RECEIVED and advance <= SEQ_HALF:
            connection.state = TcpState.ESTABLISHED
        connection.peer_window = tcp.window
        if 0 < advance <= SEQ_HALF and not 0 < (ack - connection.snd_nxt) % SEQ_MODULO <= SEQ_HALF:
            connection.snd_una = ack
            if ack == connection.snd_nxt and connection.retransmit_event is not None:
                self._cancel_retransmit(connection)
            self._try_send_app_data(connection)

    def _handle_data(self, connection: TcpConnection, tcp: TcpHeader, payload: bytes) -> None:
        # seq_add, seq_le and seq_gt spelled out: this runs per data segment.
        seg_seq = tcp.seq
        seg_len = len(payload)
        seg_end = (seg_seq + seg_len) % SEQ_MODULO
        rcv_nxt = connection.rcv_nxt

        if not 0 < (seg_end - rcv_nxt) % SEQ_MODULO <= SEQ_HALF:
            # Entirely old or duplicate data: acknowledge immediately (this is
            # the path the single-connection test's repeated preparation
            # packet and the dual-connection test's samples exercise).
            self._send_ack(connection, immediate=True)
            return

        if 0 < (seg_seq - rcv_nxt) % SEQ_MODULO <= SEQ_HALF:
            # Out-of-order data above a hole: queue it and send an immediate
            # duplicate ACK so fast retransmit keeps working.
            connection.out_of_order[seg_seq] = max(connection.out_of_order.get(seg_seq, 0), seg_len)
            self._send_ack(connection, immediate=True)
            return

        # In-order (or partially overlapping) data: advance rcv_nxt, then
        # merge any queued segments that have become contiguous.
        connection.rcv_nxt = seg_end
        filled_hole = bool(connection.out_of_order) and self._merge_out_of_order(connection)
        if self._on_data is not None:
            self._on_data(self, connection, payload)
        if filled_hole and self._profile.ack_on_hole_fill:
            self._send_ack(connection, immediate=True)
        else:
            connection.delayed_ack_pending += 1
            if connection.delayed_ack_pending >= DELAYED_ACK_THRESHOLD:
                self._send_ack(connection, immediate=True)
            else:
                self._schedule_delayed_ack(connection)

    def _merge_out_of_order(self, connection: TcpConnection) -> bool:
        """Merge queued segments contiguous with rcv_nxt; return True if any merged."""
        merged = False
        progressed = True
        while progressed:
            progressed = False
            for seq, length in list(connection.out_of_order.items()):
                # seq_le(seq, rcv_nxt) and seq_gt(end, rcv_nxt), then
                # seq_le(end, rcv_nxt), spelled out.
                rcv_nxt = connection.rcv_nxt
                end = (seq + length) % SEQ_MODULO
                end_beyond = 0 < (end - rcv_nxt) % SEQ_MODULO <= SEQ_HALF
                if end_beyond and not 0 < (seq - rcv_nxt) % SEQ_MODULO <= SEQ_HALF:
                    connection.rcv_nxt = end
                    del connection.out_of_order[seq]
                    merged = True
                    progressed = True
                elif not end_beyond:
                    del connection.out_of_order[seq]
                    progressed = True
        return merged or bool(connection.out_of_order)

    def _handle_fin(self, connection: TcpConnection, tcp: TcpHeader, payload_length: int) -> None:
        fin_seq = (tcp.seq + payload_length) % SEQ_MODULO
        if fin_seq == connection.rcv_nxt:
            connection.rcv_nxt = (connection.rcv_nxt + 1) % SEQ_MODULO
        self._send_segment(
            connection,
            flags=_FLAGS_FIN_ACK,
            seq=connection.snd_nxt,
            ack=connection.rcv_nxt,
        )
        self._close(connection)

    # ------------------------------------------------------------------ #
    # Send path
    # ------------------------------------------------------------------ #

    def _send_segment(
        self,
        connection: TcpConnection,
        flags: TcpFlags,
        seq: int,
        ack: int,
        payload: bytes = b"",
        options: tuple[TcpOption, ...] = (),
    ) -> None:
        peer_addr, peer_port, _local_addr, local_port = connection.key
        header = TcpHeader(
            local_port, peer_port, seq, ack, flags, connection.advertised_window, 0, options
        )
        packet = Packet(
            IPv4Header(self.address, peer_addr, PROTO_TCP, self._next_ipid(peer_addr)), header, None, payload
        )
        self.packets_sent += 1
        if int.__and__(flags, _ACK):
            connection.acks_sent += 1
        self._transmit(packet)

    def _send_reset(self, key: ConnectionKey, seq: int, ack: int) -> None:
        peer_addr, peer_port, _local_addr, local_port = key
        packet = Packet(
            IPv4Header(self.address, peer_addr, PROTO_TCP, self._next_ipid(peer_addr)),
            TcpHeader(local_port, peer_port, seq, ack, _FLAGS_RST_ACK, 0),
            None,
            b"",
        )
        self.packets_sent += 1
        self.resets_sent += 1
        self._transmit(packet)

    def _send_ack(self, connection: TcpConnection, immediate: bool) -> None:
        del immediate
        if connection.delayed_ack_event is not None:
            self._cancel_delayed_ack(connection)
        connection.delayed_ack_pending = 0
        self._send_segment(
            connection,
            flags=TcpFlags.ACK,
            seq=connection.snd_nxt,
            ack=connection.rcv_nxt,
        )

    def _schedule_delayed_ack(self, connection: TcpConnection) -> None:
        if connection.delayed_ack_event is not None:
            return

        def _fire() -> None:
            connection.delayed_ack_event = None
            self._send_ack(connection, immediate=False)

        connection.delayed_ack_event = self._sim.schedule(self._profile.delayed_ack_timeout, _fire)

    def _cancel_delayed_ack(self, connection: TcpConnection) -> None:
        if connection.delayed_ack_event is not None:
            self._sim.cancel(connection.delayed_ack_event)
            connection.delayed_ack_event = None

    def _close(self, connection: TcpConnection) -> None:
        self._cancel_delayed_ack(connection)
        self._cancel_retransmit(connection)
        connection.state = TcpState.CLOSED
        self._connections.pop(connection.key, None)

    # ------------------------------------------------------------------ #
    # Application data transfer (used by the web server)
    # ------------------------------------------------------------------ #

    def send_app_data(self, connection: TcpConnection, num_bytes: int) -> None:
        """Queue ``num_bytes`` of application data for transmission to the peer."""
        if num_bytes < 0:
            raise ValueError(f"cannot send a negative number of bytes: {num_bytes}")
        connection.app_bytes_queued += num_bytes
        self._try_send_app_data(connection)

    def _try_send_app_data(self, connection: TcpConnection) -> None:
        if connection.state is not TcpState.ESTABLISHED:
            return
        sent_any = False
        while connection.app_bytes_queued > 0:
            # bytes_in_flight() spelled out: the signed distance snd_una -> snd_nxt.
            in_flight = (connection.snd_nxt - connection.snd_una) % SEQ_MODULO
            if in_flight > SEQ_HALF:
                in_flight -= SEQ_MODULO
            window_remaining = connection.peer_window - in_flight
            if window_remaining <= 0:
                break
            segment_size = min(connection.peer_mss, connection.app_bytes_queued, window_remaining)
            if segment_size <= 0:
                break
            payload = bytes(segment_size)
            self._send_segment(
                connection,
                flags=_FLAGS_ACK_PSH,
                seq=connection.snd_nxt,
                ack=connection.rcv_nxt,
                payload=payload,
            )
            connection.snd_nxt = (connection.snd_nxt + segment_size) % SEQ_MODULO
            connection.app_bytes_queued -= segment_size
            connection.app_bytes_sent += segment_size
            sent_any = True
        if connection.retransmit_event is None and (
            sent_any or 0 < (connection.snd_nxt - connection.snd_una) % SEQ_MODULO <= SEQ_HALF
        ):
            self._schedule_retransmit(connection)

    def _schedule_retransmit(self, connection: TcpConnection) -> None:
        if connection.retransmit_event is not None:
            return

        def _fire() -> None:
            connection.retransmit_event = None
            self._retransmit(connection)

        connection.retransmit_event = self._sim.schedule(RETRANSMIT_TIMEOUT, _fire)

    def _cancel_retransmit(self, connection: TcpConnection) -> None:
        if connection.retransmit_event is not None:
            self._sim.cancel(connection.retransmit_event)
            connection.retransmit_event = None

    def _retransmit(self, connection: TcpConnection) -> None:
        if connection.state is not TcpState.ESTABLISHED:
            return
        outstanding = connection.bytes_in_flight()
        if outstanding <= 0:
            return
        segment_size = min(connection.peer_mss, outstanding)
        self._send_segment(
            connection,
            flags=_FLAGS_ACK_PSH,
            seq=connection.snd_una,
            ack=connection.rcv_nxt,
            payload=bytes(segment_size),
        )
        self._schedule_retransmit(connection)
