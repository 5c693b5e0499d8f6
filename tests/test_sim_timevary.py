"""Tests for the time-varying path elements and the declarative path builder."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpHeader
from repro.sim.build import (
    DiurnalJitterSpec,
    ElementSpec,
    GilbertLossSpec,
    JitterSpec,
    LinkSpec,
    LossSpec,
    RouteFlapSpec,
    SwapSpec,
    TraceSpec,
    build_elements,
)
from repro.sim.link import Link
from repro.sim.path import attach_chain
from repro.sim.random import SeededRandom
from repro.sim.reorder import AdjacentSwapReorderer, LossElement
from repro.sim.simulator import Simulator
from repro.sim.timevary import (
    DiurnalCongestionElement,
    GilbertElliottLossElement,
    RouteFlapReorderer,
)
from repro.sim.trace import TraceCapture

SRC = parse_address("10.0.0.1")
DST = parse_address("10.0.0.2")


def _packet() -> Packet:
    return Packet.tcp_packet(SRC, DST, TcpHeader(src_port=1, dst_port=2))


# --------------------------------------------------------------------- #
# Gilbert–Elliott loss
# --------------------------------------------------------------------- #


def test_gilbert_all_good_never_drops():
    sim = Simulator()
    element = GilbertElliottLossElement(SeededRandom(3), good_loss=0.0, p_good_to_bad=0.0)
    out = []
    element.attach(sim, out.append)
    for _ in range(300):
        element.handle_packet(_packet())
    assert len(out) == 300
    assert element.packets_dropped == 0
    assert element.bursts_entered == 0


def test_gilbert_loss_is_bursty():
    """Drops cluster into episodes instead of spreading independently."""
    sim = Simulator()
    element = GilbertElliottLossElement(
        SeededRandom(11), good_loss=0.0, bad_loss=0.7, p_good_to_bad=0.01, p_bad_to_good=0.15
    )
    dropped_at = []
    out = []
    element.attach(sim, out.append)
    for index in range(4000):
        before = element.packets_dropped
        element.handle_packet(_packet())
        if element.packets_dropped > before:
            dropped_at.append(index)
    assert element.bursts_entered > 0
    assert len(dropped_at) > 20
    # Bursty: the mean gap between consecutive drops inside the stream is far
    # smaller than the mean gap of a uniform process with the same drop count.
    gaps = [b - a for a, b in zip(dropped_at, dropped_at[1:])]
    uniform_gap = 4000 / len(dropped_at)
    assert sum(gaps) / len(gaps) < uniform_gap
    median_gap = sorted(gaps)[len(gaps) // 2]
    assert median_gap <= 3  # most drops have a drop within a couple of packets


def test_gilbert_validates_probabilities():
    with pytest.raises(ValueError):
        GilbertElliottLossElement(SeededRandom(1), bad_loss=1.5)


# --------------------------------------------------------------------- #
# Route flaps
# --------------------------------------------------------------------- #


def _pair_exchange_rate(element, sim, pairs, spacing=0.0) -> float:
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


def test_route_flap_quiet_baseline_never_reorders():
    sim = Simulator()
    element = RouteFlapReorderer(
        SeededRandom(5),
        base_swap_probability=0.0,
        flap_swap_probability=0.5,
        mean_quiet_interval=1e9,  # first flap effectively never arrives
        mean_flap_duration=1.0,
    )
    assert _pair_exchange_rate(element, sim, 100) == 0.0
    assert element.flaps_started == 0


def test_route_flap_episodes_reorder_heavily():
    sim = Simulator()
    element = RouteFlapReorderer(
        SeededRandom(5),
        base_swap_probability=0.0,
        flap_swap_probability=1.0,
        mean_quiet_interval=2.0,
        mean_flap_duration=2.0,
    )
    rate = _pair_exchange_rate(element, sim, 400)
    assert element.flaps_started > 5
    # Roughly half the simulated time is flap time with certain swaps.
    assert 0.2 < rate < 0.8


def test_route_flap_schedule_is_deterministic():
    def run() -> tuple[float, int]:
        sim = Simulator()
        element = RouteFlapReorderer(
            SeededRandom(9),
            flap_swap_probability=0.8,
            mean_quiet_interval=3.0,
            mean_flap_duration=1.5,
        )
        return _pair_exchange_rate(element, sim, 150), element.flaps_started

    assert run() == run()


def test_route_flap_validates_parameters():
    with pytest.raises(ValueError):
        RouteFlapReorderer(SeededRandom(1), flap_swap_probability=2.0)
    with pytest.raises(ValueError):
        RouteFlapReorderer(SeededRandom(1), mean_quiet_interval=0.0)


# --------------------------------------------------------------------- #
# Diurnal congestion
# --------------------------------------------------------------------- #


def test_diurnal_jitter_mean_follows_the_cycle():
    element = DiurnalCongestionElement(SeededRandom(1), peak_jitter=0.004, period=100.0)
    quarter = element.jitter_mean_at(25.0)  # sin peak
    trough = element.jitter_mean_at(75.0)  # sin trough
    assert quarter == pytest.approx(0.004)
    assert trough == pytest.approx(0.0)
    assert 0.0 < element.jitter_mean_at(0.0) < quarter


def test_diurnal_reorders_more_at_peak_than_trough():
    def rate_at(start: float) -> float:
        # period=100 with phase 0: starting at t=25 samples the sinusoid's
        # peak, t=75 its trough; the short run barely moves the phase.
        sim = Simulator(start_time=start)
        element = DiurnalCongestionElement(SeededRandom(21), peak_jitter=0.005, period=100.0)
        out: list[Packet] = []
        exchanged = 0
        element.attach(sim, out.append)
        for _ in range(200):
            out.clear()
            first, second = _packet(), _packet()
            element.handle_packet(first)
            element.handle_packet(second)
            sim.run_until_idle()
            if [p.uid for p in out] == [second.uid, first.uid]:
                exchanged += 1
        return exchanged / 200

    peak = rate_at(25.0)
    trough = rate_at(75.0)
    # At the trough the jitter mean is ~0 so almost nothing reorders.
    assert trough < 0.05
    assert peak > trough + 0.1


def test_diurnal_validates_parameters():
    with pytest.raises(ValueError):
        DiurnalCongestionElement(SeededRandom(1), peak_jitter=-1.0)
    with pytest.raises(ValueError):
        DiurnalCongestionElement(SeededRandom(1), period=0.0)


# --------------------------------------------------------------------- #
# Declarative builder
# --------------------------------------------------------------------- #


def test_build_elements_instantiates_in_order():
    specs = (
        LinkSpec(propagation_delay=0.002),
        LossSpec(0.1, stream="loss"),
        GilbertLossSpec(stream="gloss"),
        RouteFlapSpec(stream="flap"),
        DiurnalJitterSpec(stream="diurnal"),
        SwapSpec(0.2, stream="swap"),
        TraceSpec(point="t"),
    )
    elements = build_elements(specs, SeededRandom(4))
    assert [type(e) for e in elements] == [
        Link,
        LossElement,
        GilbertElliottLossElement,
        RouteFlapReorderer,
        DiurnalCongestionElement,
        AdjacentSwapReorderer,
        TraceCapture,
    ]
    assert elements[0].propagation_delay == 0.002
    assert elements[1].loss_probability == 0.1
    assert elements[5].swap_probability == 0.2
    assert elements[6].point == "t"


def test_deterministic_specs_consume_no_randomness():
    """Adding links/traces must not shift neighbouring random streams."""

    def swap_stream(specs) -> list[float]:
        elements = build_elements(specs, SeededRandom(77))
        swap = next(e for e in elements if isinstance(e, AdjacentSwapReorderer))
        return [swap._rng.random() for _ in range(5)]

    bare = (SwapSpec(0.3, stream="swap"),)
    padded = (LinkSpec(), TraceSpec(point="a"), SwapSpec(0.3, stream="swap"), TraceSpec(point="b"))
    assert swap_stream(bare) == swap_stream(padded)


def test_built_elements_wire_traffic_through_a_chain():
    sim = Simulator()
    elements = build_elements(
        (LinkSpec(propagation_delay=0.001), JitterSpec(0.0, stream="j"), TraceSpec(point="p")),
        SeededRandom(2),
    )
    out: list[Packet] = []
    entry = attach_chain(elements, sim, out.append)
    packet = _packet()
    entry(packet)
    sim.run_until_idle()
    assert [p.uid for p in out] == [packet.uid]
    trace = elements[-1]
    assert isinstance(trace, TraceCapture)
    assert len(trace) == 1


def _concrete_specs() -> list[type[ElementSpec]]:
    """Every concrete ``ElementSpec`` subclass, newest per name (a ``slots=True``
    dataclass leaves the class it replaced a subclass too)."""
    found: dict[str, type[ElementSpec]] = {}
    pending: list[type] = [ElementSpec]
    while pending:
        for subtype in pending.pop().__subclasses__():
            pending.append(subtype)
            if not inspect.isabstract(subtype):
                found[subtype.__qualname__] = subtype
    return [found[name] for name in sorted(found)]


@pytest.mark.parametrize("spec_type", _concrete_specs(), ids=lambda spec_type: spec_type.__name__)
def test_a_spec_builds_its_element_from_its_fields(spec_type):
    """The one ``ElementSpec.build`` passes every field but ``stream`` to the
    spec's element class, and the forked stream as ``rng``."""
    assert "build" not in vars(spec_type)
    names = {field.name for field in dataclasses.fields(spec_type)}
    parameters = inspect.signature(spec_type.element).parameters
    assert names - {"stream"} <= set(parameters)
    assert ("rng" in parameters) == ("stream" in names)
    spec = spec_type()
    element = spec.build(SeededRandom(3) if spec.label is not None else None)
    assert isinstance(element, spec_type.element)


def test_every_exported_element_spec_is_checked():
    import repro.sim

    exported = {
        name for name in repro.sim.__all__
        if inspect.isclass(value := getattr(repro.sim, name)) and issubclass(value, ElementSpec)
    }
    assert exported - {"ElementSpec"} == {spec_type.__name__ for spec_type in _concrete_specs()}


def test_element_specs_are_value_objects():
    assert SwapSpec(0.1, stream="s") == SwapSpec(0.1, stream="s")
    assert hash(LossSpec(0.2)) == hash(LossSpec(0.2))
    assert RouteFlapSpec() != RouteFlapSpec(flap_swap_probability=0.9)
