"""Path elements and the chains they form.

A path element is a unidirectional packet processor: it receives a packet,
possibly delays / drops / reorders it, and emits it downstream.
:func:`attach_chain` wires a sequence of elements into one chain ending in a
sink; a testbed attaches two chains per site, one per direction, which is
exactly the shape of the paper's experiments (independent forward-path and
reverse-path reordering processes).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.net.errors import SimulationError
from repro.net.packet import Packet
from repro.sim.simulator import Simulator

PacketSink = Callable[[Packet], None]


class _Unattached:
    """A path element's ``_sim`` until :meth:`PathElement.attach` sets its own."""

    def __get__(self, element: object, owner: type) -> Simulator:
        if element is None:
            return self  # type: ignore[return-value]
        raise SimulationError(f"{owner.__name__} used before attach()")


class PathElement(ABC):
    """Base class for all unidirectional path elements.

    Subclasses implement :meth:`handle_packet` and use :meth:`_emit` /
    :meth:`_emit_after` to pass packets downstream.  An element that holds a
    packet until an absolute time (a link's departure) pushes the hop itself
    with ``self._sim.schedule_hop_at(when, self._emit, packet)`` once
    ``when > now``: one heap entry, with no handle to cancel it.  An element
    must be attached (to a simulator and a downstream sink) before it sees
    traffic; one that never was raises :class:`SimulationError` on its first
    packet, because until :meth:`attach` both ``_sim`` and ``_emit`` raise.
    """

    _sim: Simulator = _Unattached()  # type: ignore[assignment]

    def attach(self, sim: Simulator, downstream: PacketSink) -> None:
        """Bind this element to a simulator and its downstream sink.

        The sink becomes this element's ``_emit``, so forwarding a packet is
        one call with nothing to look up or check.  This is the only way to
        wire an element: calling it again rebinds the element, and the next
        packet goes to the new sink.
        """
        self._sim = sim
        self._emit = downstream  # type: ignore[method-assign]

    @abstractmethod
    def handle_packet(self, packet: Packet) -> None:
        """Process one packet travelling through this element."""

    def _emit(self, packet: Packet) -> None:
        """Deliver ``packet`` to the downstream sink immediately.

        :meth:`attach` shadows this method with the sink itself, so this body
        only runs on an element that was never attached.
        """
        raise SimulationError(f"{type(self).__name__} has no downstream sink")

    def _emit_after(self, delay: float, packet: Packet) -> None:
        """Deliver ``packet`` downstream after ``delay`` seconds."""
        if delay <= 0.0:
            self._emit(packet)
            return
        sim = self._sim
        sim.schedule_hop_at(sim.now + delay, self._emit, packet)


def attach_chain(elements: Sequence[PathElement], sim: Simulator, sink: PacketSink) -> PacketSink:
    """Wire ``elements`` so traffic flows element to element into ``sink``.

    Attaches them last to first and returns the chain's entry: the first
    element's ``handle_packet``, or ``sink`` itself when there are none.
    Callers that inject packets on a hot path call the entry directly.
    """
    entry = sink
    for element in reversed(elements):
        element.attach(sim, entry)
        entry = element.handle_packet
    return entry
