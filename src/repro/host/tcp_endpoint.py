"""A server-side TCP state machine with the behaviours the tests rely on.

This is not a full TCP implementation; it is the subset of receiver behaviour
the paper's measurement techniques leverage, modelled explicitly and
configurably:

* three-way handshake (SYN -> SYN/ACK -> ACK);
* immediate duplicate ACK for out-of-order or duplicate data (required for
  fast retransmit, exploited by every test);
* delayed ACK for in-order data, with a configurable timeout, segment
  threshold, and the optional "ACK immediately when a hole is filled"
  refinement (RFC 5681) whose absence causes the single-connection test's
  ambiguity;
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
from repro.net.flow import FourTuple
from repro.net.packet import PROTO_TCP, IPv4Header, Packet, TcpFlags, TcpHeader, TcpOption
from repro.net.seqnum import SEQ_HALF, SEQ_MODULO, seq_add, seq_diff, seq_ge, seq_gt, seq_le
from repro.sim.events import Event
from repro.sim.random import SeededRandom
from repro.sim.simulator import Simulator

TransmitFn = Callable[[Packet], None]

DEFAULT_MSS = 1460
RETRANSMIT_TIMEOUT = 1.0

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
_MSS_OPTIONS = (TcpOption.mss(DEFAULT_MSS),)


class TcpState(enum.Enum):
    """Connection states the endpoint distinguishes."""

    LISTEN = "listen"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    CLOSED = "closed"


@dataclass
class TcpConnection:
    """Per-connection state, keyed by the remote peer's four-tuple."""

    key: FourTuple
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
        listen_ports: tuple[int, ...] = (80,),
        on_data: Optional[Callable[["TcpEndpoint", TcpConnection, bytes], None]] = None,
    ) -> None:
        self._sim = sim
        self._stack = stack
        self.address = stack.address
        """The host address this endpoint answers for."""
        self._profile = profile
        self._rng = rng
        self._listen_ports = set(listen_ports)
        self._transmit: Optional[TransmitFn] = None
        self._on_data = on_data
        # Keyed by (peer addr, peer port, local port) plain tuples rather
        # than FourTuple: the receive path looks a connection up per packet,
        # and hashing three ints beats constructing + hashing a validated
        # dataclass.  The local address is implied (it is this endpoint's).
        self._connections: dict[tuple[int, int, int], TcpConnection] = {}
        self.packets_received = 0
        self.packets_sent = 0
        self.resets_sent = 0
        self.connections_accepted = 0

    @property
    def profile(self) -> OsProfile:
        """The OS behaviour profile in force."""
        return self._profile

    @property
    def connections(self) -> dict[FourTuple, TcpConnection]:
        """Live connections keyed by the peer's four-tuple (read-only view)."""
        return {connection.key: connection for connection in self._connections.values()}

    def set_transmit(self, transmit: TransmitFn) -> None:
        """Provide the function used to send packets toward the probe host."""
        self._transmit = transmit

    def set_on_data(self, on_data: Callable[["TcpEndpoint", TcpConnection, bytes], None]) -> None:
        """Install (or replace) the application data callback."""
        self._on_data = on_data

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def deliver(self, packet: Packet) -> None:
        """Accept a packet arriving from the network."""
        tcp = packet.tcp
        if tcp is None or packet.ip.dst != self.address:
            return
        self.packets_received += 1
        connection = self._connections.get((packet.ip.src, tcp.src_port, tcp.dst_port))
        flags = int(tcp.flags)

        if flags & _RST:
            if connection is not None:
                self._close(connection)
            return

        if flags & _SYN and not flags & _ACK:
            self._handle_syn(packet.four_tuple(), tcp, connection)
            return

        if connection is None:
            # A non-SYN segment for an unknown connection: answer with RST so
            # misbehaving probes notice, as real stacks do.
            if tcp.dst_port in self._listen_ports:
                self._send_reset(
                    packet.four_tuple(),
                    seq=tcp.ack,
                    ack=seq_add(tcp.seq, len(packet.payload)),
                )
            return

        connection.segments_received += 1
        if flags & _ACK:
            self._handle_ack(connection, tcp)
        if packet.payload:
            self._handle_data(connection, tcp, packet.payload)
        if flags & _FIN:
            self._handle_fin(connection, tcp, payload_length=len(packet.payload))

    def _handle_syn(self, key: FourTuple, tcp: TcpHeader, connection: Optional[TcpConnection]) -> None:
        if tcp.dst_port not in self._listen_ports:
            self._send_reset(key, seq=0, ack=seq_add(tcp.seq, 1))
            return
        if connection is None or connection.state == TcpState.CLOSED:
            self._accept_connection(key, tcp)
            return
        connection.syn_packets_seen += 1
        self._handle_second_syn(connection, tcp)

    def _accept_connection(self, key: FourTuple, tcp: TcpHeader) -> None:
        iss = self._rng.randint(1_000_000, 0xFFFF0000)
        connection = TcpConnection(
            key=key,
            state=TcpState.SYN_RECEIVED,
            irs=tcp.seq,
            rcv_nxt=seq_add(tcp.seq, 1),
            iss=iss,
            snd_nxt=seq_add(iss, 1),
            snd_una=seq_add(iss, 1),
            peer_window=tcp.window,
            peer_mss=tcp.mss() or DEFAULT_MSS,
            advertised_window=self._profile.advertised_window,
        )
        self._connections[(key.src_addr, key.src_port, key.dst_port)] = connection
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
        if response is SecondSynResponse.ALWAYS_RST:
            self._send_reset(connection.key, seq=connection.snd_nxt, ack=seq_add(tcp.seq, 1))
            return
        if response is SecondSynResponse.DUAL_RST:
            self._send_reset(connection.key, seq=connection.snd_nxt, ack=seq_add(tcp.seq, 1))
            self._send_reset(connection.key, seq=connection.snd_nxt, ack=seq_add(tcp.seq, 1))
            return
        if response is SecondSynResponse.SPEC_COMPLIANT:
            # RFC 793: a SYN in the receive window on a half-open connection is
            # answered with a reset; an old (below-window) SYN gets a pure ACK.
            if seq_ge(tcp.seq, connection.rcv_nxt):
                self._send_reset(connection.key, seq=connection.snd_nxt, ack=seq_add(tcp.seq, 1))
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
        seg_seq = tcp.seq
        seg_len = len(payload)
        seg_end = seq_add(seg_seq, seg_len)

        if seq_le(seg_end, connection.rcv_nxt):
            # Entirely old or duplicate data: acknowledge immediately (this is
            # the path the single-connection test's repeated preparation
            # packet and the dual-connection test's samples exercise).
            self._send_ack(connection, immediate=True)
            return

        if seq_gt(seg_seq, connection.rcv_nxt):
            # Out-of-order data above a hole: queue it and (normally) send an
            # immediate duplicate ACK so fast retransmit keeps working.
            connection.out_of_order[seg_seq] = max(connection.out_of_order.get(seg_seq, 0), seg_len)
            if self._profile.immediate_ack_out_of_order:
                self._send_ack(connection, immediate=True)
            else:
                self._schedule_delayed_ack(connection)
            return

        # In-order (or partially overlapping) data: advance rcv_nxt, then
        # merge any queued segments that have become contiguous.
        connection.rcv_nxt = seg_end
        filled_hole = self._merge_out_of_order(connection)
        if self._on_data is not None:
            self._on_data(self, connection, payload)
        if filled_hole and self._profile.ack_on_hole_fill:
            self._send_ack(connection, immediate=True)
        elif self._profile.delayed_ack:
            connection.delayed_ack_pending += 1
            if connection.delayed_ack_pending >= self._profile.delayed_ack_threshold:
                self._send_ack(connection, immediate=True)
            else:
                self._schedule_delayed_ack(connection)
        else:
            self._send_ack(connection, immediate=True)

    def _merge_out_of_order(self, connection: TcpConnection) -> bool:
        """Merge queued segments contiguous with rcv_nxt; return True if any merged."""
        merged = False
        progressed = True
        while progressed:
            progressed = False
            for seq, length in list(connection.out_of_order.items()):
                end = seq_add(seq, length)
                if seq_le(seq, connection.rcv_nxt) and seq_gt(end, connection.rcv_nxt):
                    connection.rcv_nxt = end
                    del connection.out_of_order[seq]
                    merged = True
                    progressed = True
                elif seq_le(end, connection.rcv_nxt):
                    del connection.out_of_order[seq]
                    progressed = True
        return merged or bool(connection.out_of_order)

    def _handle_fin(self, connection: TcpConnection, tcp: TcpHeader, payload_length: int) -> None:
        fin_seq = seq_add(tcp.seq, payload_length)
        if fin_seq == connection.rcv_nxt:
            connection.rcv_nxt = seq_add(connection.rcv_nxt, 1)
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

    def _require_transmit(self) -> TransmitFn:
        if self._transmit is None:
            raise TcpStateError("endpoint transmit function not set; call set_transmit()")
        return self._transmit

    def _send_segment(
        self,
        connection: TcpConnection,
        flags: TcpFlags,
        seq: int,
        ack: int,
        payload: bytes = b"",
        options: tuple[TcpOption, ...] = (),
    ) -> None:
        transmit = self._transmit
        if transmit is None:
            transmit = self._require_transmit()
        key = connection.key
        header = TcpHeader(
            key.dst_port, key.src_port, seq, ack, flags, connection.advertised_window, 0, options
        )
        dst = key.src_addr
        packet = Packet(
            IPv4Header(self.address, dst, PROTO_TCP, self._stack.next_ipid(dst)), header, None, payload
        )
        self.packets_sent += 1
        if int.__and__(flags, _ACK):
            connection.acks_sent += 1
        transmit(packet)

    def _send_reset(self, key: FourTuple, seq: int, ack: int) -> None:
        transmit = self._transmit
        if transmit is None:
            transmit = self._require_transmit()
        header = TcpHeader(
            src_port=key.dst_port,
            dst_port=key.src_port,
            seq=seq,
            ack=ack,
            flags=_FLAGS_RST_ACK,
            window=0,
        )
        packet = Packet.tcp_packet(
            src=self.address,
            dst=key.src_addr,
            tcp=header,
            ident=self._stack.next_ipid(key.src_addr),
        )
        self.packets_sent += 1
        self.resets_sent += 1
        transmit(packet)

    def _send_ack(self, connection: TcpConnection, immediate: bool) -> None:
        del immediate
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
        key = connection.key
        self._connections.pop((key.src_addr, key.src_port, key.dst_port), None)

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
            connection.snd_nxt = seq_add(connection.snd_nxt, segment_size)
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
