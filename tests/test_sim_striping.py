"""Tests for the parallel-link striping model (the physical source of Fig. 7)."""

from __future__ import annotations

import pytest

from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpHeader
from repro.sim.random import SeededRandom
from repro.sim.simulator import Simulator
from repro.sim.striping import StripedPathModel

SRC = parse_address("10.0.0.1")
DST = parse_address("10.0.0.2")


def _packet(size: int = 0) -> Packet:
    return Packet.tcp_packet(SRC, DST, TcpHeader(src_port=1, dst_port=2), payload=b"\x00" * size)


def _exchange_fraction(gap: float, pairs: int = 800, seed: int = 21, payload: int = 0) -> float:
    sim = Simulator()
    model = StripedPathModel(rng=SeededRandom(seed))
    out: list[int] = []
    model.attach(sim, lambda p: out.append(p.uid))
    exchanged = 0
    for _ in range(pairs):
        out.clear()
        first, second = _packet(payload), _packet(payload)
        model.handle_packet(first)
        if gap > 0.0:
            sim.run_for(gap)
        model.handle_packet(second)
        sim.run_for(0.01)
        if out == [second.uid, first.uid]:
            exchanged += 1
    return exchanged / pairs


def test_parameter_validation():
    rng = SeededRandom(1)
    with pytest.raises(ValueError):
        StripedPathModel(rng=rng, num_links=1)
    with pytest.raises(ValueError):
        StripedPathModel(rng=rng, link_rate_bps=0.0)
    with pytest.raises(ValueError):
        StripedPathModel(rng=rng, switch_probability=2.0)
    with pytest.raises(ValueError):
        StripedPathModel(rng=rng, queue_imbalance_scale=-1.0)


def test_all_packets_are_delivered():
    sim = Simulator()
    model = StripedPathModel(rng=SeededRandom(2))
    out = []
    model.attach(sim, lambda p: out.append(p.uid))
    packets = [_packet() for _ in range(300)]
    for packet in packets:
        model.handle_packet(packet)
    sim.run_until_idle()
    assert sorted(out) == sorted(p.uid for p in packets)
    assert model.packets_seen == 300
    assert sum(model.link_assignments) == 300


def test_back_to_back_pairs_see_reordering():
    assert _exchange_fraction(0.0) > 0.03


def test_reordering_decays_with_spacing():
    back_to_back = _exchange_fraction(0.0)
    spaced_50us = _exchange_fraction(50e-6)
    spaced_250us = _exchange_fraction(250e-6)
    assert spaced_50us < back_to_back
    assert spaced_250us <= spaced_50us
    assert spaced_250us < 0.02


def test_large_packets_see_less_reordering_than_small():
    # Serialisation on the sender's access link spreads the leading edges of
    # back-to-back full-sized packets apart before they reach the striped
    # stage, the mechanism the paper uses to explain why the data-transfer
    # test under-reports reordering (design decision D4).
    from repro.sim.link import Link
    from repro.sim.path import attach_chain

    def fraction_for(payload: int) -> float:
        sim = Simulator()
        out: list[int] = []
        entry = attach_chain(
            [Link(bandwidth_bps=100e6, propagation_delay=0.0), StripedPathModel(rng=SeededRandom(37))],
            sim,
            lambda p: out.append(p.uid),
        )
        exchanged = 0
        pairs = 600
        for _ in range(pairs):
            out.clear()
            first, second = _packet(payload), _packet(payload)
            entry(first)
            entry(second)
            sim.run_for(0.05)
            if out == [second.uid, first.uid]:
                exchanged += 1
        return exchanged / pairs

    small = fraction_for(0)
    large = fraction_for(1460)
    assert large < small


def test_zero_switch_probability_never_reorders():
    sim = Simulator()
    model = StripedPathModel(rng=SeededRandom(3), switch_probability=0.0)
    out = []
    model.attach(sim, lambda p: out.append(p.uid))
    packets = [_packet() for _ in range(200)]
    for packet in packets:
        model.handle_packet(packet)
    sim.run_until_idle()
    assert out == [p.uid for p in packets]


@pytest.mark.parametrize("switch, imbalance", [(0.0, 1.0), (1.0, 0.0), (0.5, 0.6), (0.2, 0.9)])
def test_draws_match_seeded_random_bernoulli(switch, imbalance):
    """The switch and imbalance draws spell bernoulli's rule out on ``random``."""
    rng, reference = SeededRandom(5), SeededRandom(5)
    model = StripedPathModel(rng=rng, num_links=3, switch_probability=switch, imbalance_probability=imbalance)
    model.attach(Simulator(), lambda packet: None)
    current = 0
    expected = [0, 0, 0]
    for _ in range(200):
        model.handle_packet(_packet())
        if reference.bernoulli(switch):
            current = (current + reference.randint(1, 2)) % 3
        expected[current] += 1
        if reference.bernoulli(imbalance):
            reference.exponential(model.queue_imbalance_scale)
    assert model.link_assignments == expected
    assert rng.random() == reference.random()
