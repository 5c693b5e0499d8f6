"""Path elements and pipelines.

A path element is a unidirectional packet processor: it receives a packet,
possibly delays / drops / reorders it, and emits it downstream.  Elements are
chained into a :class:`Pipeline`; a :class:`DuplexPath` holds one pipeline per
direction, which is exactly the shape of the paper's experiments (independent
forward-path and reverse-path reordering processes).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

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
        self._on_attached()

    def _on_attached(self) -> None:
        """Hook for subclasses that need setup after attachment."""

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


class Pipeline:
    """An ordered chain of path elements, fixed at construction, ending in a
    final sink."""

    def __init__(self, elements: Sequence[PathElement] = ()) -> None:
        self._elements = tuple(elements)
        self._entry: Optional[PacketSink] = None

    def attach(self, sim: Simulator, sink: PacketSink) -> PacketSink:
        """Wire up all elements so traffic flows element-to-element into ``sink``.

        Returns the pipeline's entry: the upstream-most element's
        ``handle_packet``, or ``sink`` itself for an empty pipeline.  Callers
        that inject packets on a hot path call it directly.
        """
        downstream: PacketSink = sink
        for element in reversed(self._elements):
            element.attach(sim, downstream)
            downstream = element.handle_packet
        self._entry = downstream
        return downstream

    def handle_packet(self, packet: Packet) -> None:
        """Inject a packet at the upstream end of the pipeline."""
        entry = self._entry
        if entry is None:
            raise SimulationError("pipeline used before attach()")
        entry(packet)


class DuplexPath:
    """A forward pipeline and a reverse pipeline between two endpoints.

    The forward direction is probe-to-server; the reverse direction is
    server-to-probe, mirroring the paper's one-way measurement framing.
    """

    def __init__(self, forward: Pipeline, reverse: Pipeline) -> None:
        self.forward = forward
        self.reverse = reverse

    def attach(
        self, sim: Simulator, forward_sink: PacketSink, reverse_sink: PacketSink
    ) -> tuple[PacketSink, PacketSink]:
        """Attach both pipelines: forward traffic into the server, reverse into the probe.

        Returns the ``(forward, reverse)`` entries (see :meth:`Pipeline.attach`).
        """
        return self.forward.attach(sim, forward_sink), self.reverse.attach(sim, reverse_sink)
