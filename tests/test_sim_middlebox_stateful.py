"""Tests for the stateful middleboxes: NAT, SYN firewall, PMTUD black hole, ECN.

The NAT table is additionally checked against an independent model with
Hypothesis: a straightforward dict-with-expiry reimplementation replays an
arbitrary schedule of outbound packets and must agree with
:class:`~repro.sim.middlebox.NatTable` on every allocated external port.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flow import parse_address
from repro.net.icmp import QuotedFlow
from repro.net.packet import ICMP_ECHO_REQUEST, PROTO_TCP, IcmpEcho, Packet, TcpFlags, TcpHeader
from repro.sim.middlebox import (
    ECN_CE,
    ECN_ECT0,
    ECN_MASK,
    EcnBleacher,
    EcnMarker,
    IcmpRateLimiter,
    NatForward,
    NatReverse,
    NatTable,
    PmtudBlackHole,
    SynFirewall,
)
from repro.sim.simulator import Simulator

CLIENT = parse_address("10.0.0.1")
SERVER = parse_address("10.9.0.1")
ROUTER = parse_address("10.5.0.1")


def _syn(src_port: int, src: int = CLIENT) -> Packet:
    return Packet.tcp_packet(src, SERVER, TcpHeader(src_port=src_port, dst_port=80, flags=TcpFlags.SYN))


def _ack(src_port: int) -> Packet:
    return Packet.tcp_packet(CLIENT, SERVER, TcpHeader(src_port=src_port, dst_port=80, flags=TcpFlags.ACK))


def _reply(dst_port: int) -> Packet:
    return Packet.tcp_packet(SERVER, CLIENT, TcpHeader(src_port=80, dst_port=dst_port, flags=TcpFlags.ACK))


def _echo() -> Packet:
    return Packet.icmp_packet(CLIENT, SERVER, IcmpEcho(ICMP_ECHO_REQUEST, identifier=1, sequence=1))


# --------------------------------------------------------------------- #
# NAT table semantics
# --------------------------------------------------------------------- #


def test_nat_table_allocates_monotonic_external_ports():
    table = NatTable(timeout=1.0, port_base=2000)
    assert table.translate_forward(CLIENT, 40000, now=0.0) == 2000
    assert table.translate_forward(CLIENT, 40001, now=0.0) == 2001
    assert table.translate_forward(CLIENT + 1, 40000, now=0.0) == 2002
    assert table.mappings_created == 3
    # All three mappings are live in the reverse direction.
    assert [table.translate_reverse(port, now=0.0) for port in (2000, 2001, 2002)] == [
        (CLIENT, 40000), (CLIENT, 40001), (CLIENT + 1, 40000)
    ]


def test_nat_mapping_is_stable_while_refreshed():
    table = NatTable(timeout=0.5, port_base=2000)
    now = 0.0
    for _ in range(10):
        assert table.translate_forward(CLIENT, 40000, now=now) == 2000
        now += 0.4  # each forward packet lands inside the idle window
    assert table.mappings_created == 1
    assert table.mappings_expired == 0


def test_idle_mapping_expires_and_reallocates_a_new_port():
    table = NatTable(timeout=0.5, port_base=2000)
    assert table.translate_forward(CLIENT, 40000, now=0.0) == 2000
    assert table.translate_forward(CLIENT, 40000, now=0.6) == 2001
    assert table.mappings_expired == 1
    # The stale external port is gone from the reverse direction too.
    assert table.translate_reverse(2000, now=0.6) is None


def test_reverse_lookup_does_not_refresh_conservative_nat():
    table = NatTable(timeout=0.5, port_base=2000)
    table.translate_forward(CLIENT, 40000, now=0.0)
    # Inbound traffic keeps arriving, but only outbound refreshes the entry.
    assert table.translate_reverse(2000, now=0.4) == (CLIENT, 40000)
    assert table.translate_reverse(2000, now=0.51) is None
    assert table.mappings_expired == 1


def test_reverse_lookup_of_unknown_port_is_none():
    table = NatTable(timeout=1.0)
    assert table.translate_reverse(3123, now=0.0) is None


def test_nat_table_validation():
    with pytest.raises(ValueError):
        NatTable(timeout=0.0)
    with pytest.raises(ValueError):
        NatTable(timeout=1.0, port_base=0)
    with pytest.raises(ValueError):
        NatTable(timeout=1.0, port_base=0x10000)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # which internal flow
            st.floats(min_value=0.0, max_value=0.3, allow_nan=False),  # inter-packet gap
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_nat_table_agrees_with_independent_expiry_model(schedule):
    timeout, port_base = 0.25, 5000
    table = NatTable(timeout=timeout, port_base=port_base)
    model: dict[int, tuple[int, float]] = {}  # flow -> (external port, last used)
    next_port = port_base
    now = 0.0
    for flow, gap in schedule:
        now += gap
        entry = model.get(flow)
        if entry is not None and now - entry[1] > timeout:
            entry = None
        if entry is None:
            entry = (next_port, now)
            next_port += 1
        model[flow] = (entry[0], now)
        assert table.translate_forward(CLIENT, 40000 + flow, now=now) == entry[0]
    # Expiry is lazy (stale entries linger until touched), so the table holds
    # exactly one mapping per flow ever seen.
    assert table.mappings_created - table.mappings_expired == len(model)


# --------------------------------------------------------------------- #
# NAT pair on the wire
# --------------------------------------------------------------------- #


def test_nat_pair_rewrites_and_restores_ports():
    sim = Simulator()
    table = NatTable(timeout=1.0, port_base=2000)
    outbound, inbound = [], []
    fwd, rev = NatForward(table), NatReverse(table)
    fwd.attach(sim, outbound.append)
    rev.attach(sim, inbound.append)

    syn, reply = _syn(src_port=40000), _reply(dst_port=2000)
    fwd.handle_packet(syn)
    assert outbound[0].tcp.src_port == 2000
    assert fwd.rewritten == 1
    rev.handle_packet(reply)
    assert inbound[0].tcp.dst_port == 40000
    assert rev.restored == 1
    # A rewrite forwards the same packet: only the port changes, the uid stays.
    for sent, seen in ((syn, outbound[0]), (reply, inbound[0])):
        assert seen.uid == sent.uid and seen.ip == sent.ip and seen.payload == sent.payload
    assert outbound[0].tcp == syn.tcp._replace(src_port=2000)
    assert inbound[0].tcp == reply.tcp._replace(dst_port=40000)


def test_reply_after_timeout_is_dropped_by_the_reverse_half():
    sim = Simulator()
    table = NatTable(timeout=0.1, port_base=2000)
    outbound, inbound = [], []
    fwd, rev = NatForward(table), NatReverse(table)
    fwd.attach(sim, outbound.append)
    rev.attach(sim, inbound.append)

    fwd.handle_packet(_syn(src_port=40000))
    sim.run_for(0.2)  # the flow goes idle past the NAT timeout
    rev.handle_packet(_reply(dst_port=2000))
    assert inbound == []
    assert rev.unmapped_dropped == 1


def test_nat_pair_passes_non_tcp_untouched():
    sim = Simulator()
    table = NatTable(timeout=1.0)
    outbound, inbound = [], []
    fwd, rev = NatForward(table), NatReverse(table)
    fwd.attach(sim, outbound.append)
    rev.attach(sim, inbound.append)
    fwd.handle_packet(_echo())
    rev.handle_packet(_echo())
    assert len(outbound) == 1 and len(inbound) == 1
    assert table.mappings_created == 0


# --------------------------------------------------------------------- #
# SYN firewall
# --------------------------------------------------------------------- #


def test_syn_firewall_admits_one_syn_per_burst_then_refills():
    sim = Simulator()
    out = []
    firewall = SynFirewall(rate_per_second=1.0, burst=1)
    firewall.attach(sim, out.append)

    firewall.handle_packet(_syn(src_port=40000))
    firewall.handle_packet(_syn(src_port=40001))  # bucket empty: eaten
    assert firewall.syn_passed == 1
    assert firewall.syn_dropped == 1
    sim.run_for(1.0)  # one token trickles back
    firewall.handle_packet(_syn(src_port=40002))
    assert firewall.syn_passed == 2
    assert len(out) == 2


def test_syn_firewall_is_stateful_about_established_flows():
    sim = Simulator()
    out = []
    firewall = SynFirewall(rate_per_second=1.0, burst=1)
    firewall.attach(sim, out.append)

    firewall.handle_packet(_syn(src_port=40000))
    firewall.handle_packet(_ack(src_port=40000))  # admitted flow: passes
    firewall.handle_packet(_ack(src_port=40001))  # never admitted: dropped
    assert len(out) == 2
    assert firewall.out_of_state_dropped == 1
    # The denied flow stays denied even after the bucket refills.
    sim.run_for(5.0)
    firewall.handle_packet(_ack(src_port=40001))
    assert firewall.out_of_state_dropped == 2


def test_syn_firewall_ignores_syn_ack_and_non_tcp():
    sim = Simulator()
    out = []
    firewall = SynFirewall(rate_per_second=1.0, burst=1)
    firewall.attach(sim, out.append)
    firewall.handle_packet(_syn(src_port=40000))
    # The server's SYN|ACK belongs to the admitted flow and spends no token.
    syn_ack = Packet.tcp_packet(
        SERVER, CLIENT,
        TcpHeader(src_port=80, dst_port=40000, flags=TcpFlags.SYN | TcpFlags.ACK),
    )
    firewall.handle_packet(syn_ack)
    firewall.handle_packet(_echo())
    assert len(out) == 3
    assert firewall.syn_passed == 1


@pytest.mark.parametrize("client", [CLIENT, parse_address("10.200.0.1")], ids=["below", "above"])
def test_syn_firewall_admits_both_directions_of_a_flow(client):
    # The flow key puts the lower (address, port) endpoint first, whichever
    # side the client's address falls on.
    sim = Simulator()
    out = []
    firewall = SynFirewall(rate_per_second=1.0, burst=1)
    firewall.attach(sim, out.append)

    def ack(src, dst, src_port, dst_port):
        return Packet.tcp_packet(src, dst, TcpHeader(src_port=src_port, dst_port=dst_port, flags=TcpFlags.ACK))

    firewall.handle_packet(_syn(src_port=40000, src=client))
    firewall.handle_packet(ack(SERVER, client, 80, 40000))
    firewall.handle_packet(ack(client, SERVER, 40000, 80))
    assert len(out) == 3 and firewall.out_of_state_dropped == 0
    firewall.handle_packet(ack(SERVER, client, 80, 40001))
    assert firewall.out_of_state_dropped == 1


def test_syn_firewall_validation():
    with pytest.raises(ValueError):
        SynFirewall(rate_per_second=0.0)
    with pytest.raises(ValueError):
        SynFirewall(rate_per_second=1.0, burst=0)


def test_icmp_policer_partial_refill_is_proportional():
    sim = Simulator()
    out = []
    limiter = IcmpRateLimiter(rate_per_second=4.0, burst=2)
    limiter.attach(sim, out.append)
    for _ in range(4):
        limiter.handle_packet(_echo())
    assert limiter.icmp_forwarded == 2
    sim.run_for(0.25)  # 0.25s at 4 tokens/s buys back exactly one token
    for _ in range(2):
        limiter.handle_packet(_echo())
    assert limiter.icmp_forwarded == 3
    assert limiter.icmp_dropped == 3


# --------------------------------------------------------------------- #
# PMTUD black hole
# --------------------------------------------------------------------- #


def _big_segment(payload_length: int) -> Packet:
    return Packet.tcp_packet(
        CLIENT, SERVER,
        TcpHeader(src_port=40000, dst_port=80, flags=TcpFlags.ACK),
        payload=b"x" * payload_length,
    )


def test_black_hole_eats_big_df_packets_silently():
    sim = Simulator()
    out = []
    hole = PmtudBlackHole(mtu=256)
    hole.attach(sim, out.append)
    hole.handle_packet(_big_segment(10))  # fits: passes
    hole.handle_packet(_big_segment(400))  # too big + DF: vanishes
    big = _big_segment(400)
    big_no_df = Packet(big.ip._replace(dont_fragment=False), big.tcp, None, big.payload, big.uid)
    hole.handle_packet(big_no_df)  # too big but fragmentable: passes
    assert len(out) == 2
    assert hole.black_holed == 1
    assert hole.errors_sent == 0


def test_error_sink_turns_the_hole_into_an_rfc1191_router():
    sim = Simulator()
    out, errors = [], []
    hole = PmtudBlackHole(mtu=256, router_address=ROUTER, error_sink=errors.append)
    hole.attach(sim, out.append)
    offending = _big_segment(400)
    hole.handle_packet(offending)
    assert out == []
    assert hole.errors_sent == 1
    error_packet = errors[0]
    assert error_packet.ip.src == ROUTER
    assert error_packet.ip.dst == CLIENT  # back to the offender's source
    assert error_packet.icmp.is_frag_needed()
    assert error_packet.icmp.next_hop_mtu == 256
    assert error_packet.icmp.quoted_flow() == QuotedFlow(CLIENT, SERVER, PROTO_TCP, 40000, 80)


def test_black_hole_validation():
    with pytest.raises(ValueError):
        PmtudBlackHole(mtu=67)


# --------------------------------------------------------------------- #
# ECN marking and bleaching
# --------------------------------------------------------------------- #


def test_marker_stamps_only_unmarked_packets():
    sim = Simulator()
    out = []
    marker = EcnMarker(codepoint=ECN_ECT0)
    marker.attach(sim, out.append)
    syn = _syn(src_port=40000)
    marker.handle_packet(syn)
    assert out[0].ip.tos & ECN_MASK == ECN_ECT0
    assert out[0].ip == syn.ip._replace(tos=ECN_ECT0) and out[0].tcp == syn.tcp and out[0].uid == syn.uid
    marker.handle_packet(out[0])  # already carries the codepoint
    assert marker.marked == 1


def test_bleacher_erases_any_codepoint_and_preserves_dscp():
    sim = Simulator()
    out = []
    bleacher = EcnBleacher()
    bleacher.attach(sim, out.append)
    dscp = 0b101000
    syn = _syn(src_port=40000)
    marked = Packet(syn.ip._replace(tos=dscp | ECN_CE), syn.tcp, None, syn.payload, syn.uid)
    bleacher.handle_packet(marked)
    assert out[0].ip.tos == dscp
    assert out[0].ip == marked.ip._replace(tos=dscp) and out[0].uid == marked.uid
    bleacher.handle_packet(out[0])  # nothing left to bleach
    assert bleacher.bleached == 1


def test_mark_then_bleach_round_trips_the_tos_byte():
    sim = Simulator()
    marked, cleaned = [], []
    marker = EcnMarker()
    bleacher = EcnBleacher()
    marker.attach(sim, marked.append)
    bleacher.attach(sim, cleaned.append)
    original = _syn(src_port=40000)
    marker.handle_packet(original)
    bleacher.handle_packet(marked[0])
    assert cleaned[0].ip.tos == original.ip.tos


def test_marker_validation():
    with pytest.raises(ValueError):
        EcnMarker(codepoint=4)
