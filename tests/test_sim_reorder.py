"""Tests for the reordering, loss, jitter, and duplication elements."""

from __future__ import annotations

import pytest

from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpHeader
from repro.sim.random import SeededRandom
from repro.sim.reorder import AdjacentSwapReorderer, DelayJitterReorderer, LossElement
from repro.sim.simulator import Simulator

SRC = parse_address("10.0.0.1")
DST = parse_address("10.0.0.2")


def _packet() -> Packet:
    return Packet.tcp_packet(SRC, DST, TcpHeader(src_port=1, dst_port=2))


def _run_pairs(element, sim, pairs: int) -> float:
    """Send back-to-back pairs through the element; return the exchange fraction."""
    exchanged = 0
    out: list[Packet] = []
    element.attach(sim, out.append)
    for _ in range(pairs):
        out.clear()
        first, second = _packet(), _packet()
        element.handle_packet(first)
        element.handle_packet(second)
        sim.run_for(1.0)
        if [p.uid for p in out] == [second.uid, first.uid]:
            exchanged += 1
    return exchanged / pairs


def test_swap_zero_probability_never_reorders():
    sim = Simulator()
    element = AdjacentSwapReorderer(0.0, SeededRandom(1))
    assert _run_pairs(element, sim, 200) == 0.0


def test_swap_probability_matches_configuration():
    sim = Simulator()
    element = AdjacentSwapReorderer(0.3, SeededRandom(2))
    fraction = _run_pairs(element, sim, 1500)
    assert 0.25 < fraction < 0.35


def test_swap_one_always_exchanges_pairs():
    sim = Simulator()
    element = AdjacentSwapReorderer(1.0, SeededRandom(3))
    assert _run_pairs(element, sim, 100) == 1.0


def test_held_packet_flushes_without_follower():
    sim = Simulator()
    out = []
    element = AdjacentSwapReorderer(1.0, SeededRandom(4), max_hold_time=0.02)
    element.attach(sim, out.append)
    packet = _packet()
    element.handle_packet(packet)
    assert not out
    sim.run_until_idle()
    assert [p.uid for p in out] == [packet.uid]
    assert element.holds_flushed == 1


def test_swap_rejects_bad_probability():
    with pytest.raises(ValueError):
        AdjacentSwapReorderer(1.5, SeededRandom(1))
    with pytest.raises(ValueError):
        AdjacentSwapReorderer(0.5, SeededRandom(1), max_hold_time=0.0)


def test_loss_element_drop_fraction():
    sim = Simulator()
    out = []
    element = LossElement(0.25, SeededRandom(5))
    element.attach(sim, out.append)
    for _ in range(4000):
        element.handle_packet(_packet())
    fraction = element.packets_dropped / 4000
    assert 0.2 < fraction < 0.3
    assert element.packets_forwarded == len(out)


def test_loss_element_never_or_always():
    sim = Simulator()
    out = []
    keep = LossElement(0.0, SeededRandom(6))
    keep.attach(sim, out.append)
    for _ in range(50):
        keep.handle_packet(_packet())
    assert len(out) == 50
    drop = LossElement(1.0, SeededRandom(7))
    drop.attach(sim, out.append)
    for _ in range(50):
        drop.handle_packet(_packet())
    assert drop.packets_dropped == 50


def test_jitter_reorders_when_inversion_exceeds_gap():
    sim = Simulator()
    out = []
    element = DelayJitterReorderer(base_delay=0.0, jitter_mean=0.01, rng=SeededRandom(8))
    element.attach(sim, lambda p: out.append(p.uid))
    packets = [_packet() for _ in range(500)]
    for packet in packets:
        element.handle_packet(packet)
    sim.run_until_idle()
    sent = [p.uid for p in packets]
    assert sorted(out) == sorted(sent)
    assert out != sent  # with 500 packets and heavy jitter, some inversion is certain


def test_jitter_zero_mean_preserves_order():
    sim = Simulator()
    out = []
    element = DelayJitterReorderer(base_delay=0.001, jitter_mean=0.0, rng=SeededRandom(9))
    element.attach(sim, lambda p: out.append(p.uid))
    packets = [_packet() for _ in range(20)]
    for packet in packets:
        element.handle_packet(packet)
    sim.run_until_idle()
    assert out == [p.uid for p in packets]


# The loss and swap elements spell SeededRandom.bernoulli's rule out on the
# stream's own ``random``.  Pin each to bernoulli itself: the same decisions
# from the same draws, and the stream left in the same place after N packets.
DRAW_PROBABILITIES = (0.0, 1.0, 0.3, 0.97)
N_PACKETS = 200


@pytest.mark.parametrize("probability", DRAW_PROBABILITIES)
def test_loss_draws_match_bernoulli(probability):
    rng, reference = SeededRandom(17), SeededRandom(17)
    element = LossElement(probability, rng)
    out: list[Packet] = []
    element.attach(Simulator(), out.append)
    expected_kept = 0
    for _ in range(N_PACKETS):
        element.handle_packet(_packet())
        expected_kept += not reference.bernoulli(probability)
    assert len(out) == element.packets_forwarded == expected_kept
    assert rng.random() == reference.random()


@pytest.mark.parametrize("probability", DRAW_PROBABILITIES)
def test_swap_draws_match_bernoulli(probability):
    rng, reference = SeededRandom(17), SeededRandom(17)
    element = AdjacentSwapReorderer(probability, rng)
    element.attach(Simulator(), lambda packet: None)
    holding = False
    expected_swaps = 0
    for _ in range(N_PACKETS):
        element.handle_packet(_packet())
        # A packet that releases a held one is never itself drawn for a hold.
        if holding:
            holding = False
            expected_swaps += 1
        else:
            holding = reference.bernoulli(probability)
    assert element.swaps_performed == expected_swaps
    assert rng.random() == reference.random()
