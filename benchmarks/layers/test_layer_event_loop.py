"""Layer microbenchmarks for the event loop.

Two cases on a bare ``Simulator``, run with pytest-benchmark.  Each round
gets a fresh simulator from ``benchmark.pedantic(setup=...)``, so every round
runs the same events from the same state and nothing built in the setup is
timed:

* packet hops: ``EVENTS`` prebuilt packets enter a 100 Mb/s ``Link`` at time
  zero, and ``run_until_idle`` drains their departures into a sink.  Each
  packet is one scheduled and one fired hop, the path every delayed packet
  takes;
* timers: ``EVENTS`` callbacks are scheduled with ``Simulator.schedule``,
  every other one is cancelled through its handle, and ``run_until_idle``
  drains the queue.  This is the path of TCP's retransmit and delayed-ACK
  timers and of the adjacent-swap reorderer's flush.

Each case stores the median cost per scheduled event, in nanoseconds, in
its ``extra_info["ns_per_event"]``.  The cases claim nothing by themselves.
Compare medians and IQRs of two commits measured on one machine in one
session::

    PYTHONPATH=src python -m pytest benchmarks/layers -q --benchmark-json=layers.json

Tier-1 runs do not collect this directory (``testpaths = ["tests"]``).
"""

from __future__ import annotations

from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpFlags, TcpHeader
from repro.sim.link import Link
from repro.sim.simulator import Simulator

EVENTS = 1000
ROUNDS = 200
PROBE = parse_address("10.0.0.1")
SERVER = parse_address("10.0.0.2")


def _record_cost_per_event(benchmark) -> None:
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_event"] = benchmark.stats.stats.median / EVENTS * 1e9


def test_packet_hops_through_a_link(benchmark):
    header = TcpHeader(40000, 80, 1000, 2000, TcpFlags.ACK, 65535)
    packets = [Packet.tcp_packet(PROBE, SERVER, header) for _ in range(EVENTS)]

    def fresh_link():
        sim = Simulator()
        link = Link(bandwidth_bps=100e6, propagation_delay=0.01)
        arrived: list[Packet] = []
        link.attach(sim, arrived.append)
        return (sim, link, arrived), {}

    def drain(sim, link, arrived):
        for packet in packets:
            link.handle_packet(packet)
        sim.run_until_idle()
        return sim, arrived

    sim, arrived = benchmark.pedantic(drain, setup=fresh_link, rounds=ROUNDS, iterations=1)
    _record_cost_per_event(benchmark)
    assert arrived == packets
    assert sim.processed_events == EVENTS
    assert sim.pending_events == 0


def test_timers_with_half_cancelled(benchmark):
    fired: list[float] = []

    def fresh_simulator():
        fired.clear()
        return (Simulator(),), {}

    def drain(sim):
        def fire() -> None:
            fired.append(sim.now)

        handles = [sim.schedule(index * 1e-3, fire) for index in range(EVENTS)]
        for handle in handles[::2]:
            handle.cancel()
        sim.run_until_idle()
        return sim

    sim = benchmark.pedantic(drain, setup=fresh_simulator, rounds=ROUNDS, iterations=1)
    _record_cost_per_event(benchmark)
    assert len(fired) == sim.processed_events == EVENTS // 2
    assert sim.now == fired[-1] == (EVENTS - 1) * 1e-3
    assert sim.pending_events == 0
