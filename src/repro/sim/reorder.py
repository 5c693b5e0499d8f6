"""Reordering, loss, and jitter path elements.

:class:`AdjacentSwapReorderer` is a faithful model of the modified dummynet
traffic shaper the paper used for controlled validation ("swap adjacent
packets according to a specified probability distribution").
:class:`DelayJitterReorderer` is an alternative reordering process where each
packet receives an independent random extra delay, so reordering emerges when
a later packet's delay undercuts an earlier one by more than their spacing.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet
from repro.sim.events import Event
from repro.sim.path import PathElement
from repro.sim.random import SeededRandom


class LossElement(PathElement):
    """Drops each packet independently with a fixed probability.

    The draw is :meth:`SeededRandom.bernoulli`'s rule spelled out on the
    stream's own ``random``: no draw at probability 0 or 1, one otherwise.
    """

    def __init__(self, probability: float, rng: SeededRandom) -> None:
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability out of range: {probability}")
        self.loss_probability = probability
        self._random = rng.random
        self.packets_dropped = 0
        self.packets_forwarded = 0

    def handle_packet(self, packet: Packet) -> None:
        p = self.loss_probability
        if p > 0.0 and (p >= 1.0 or self._random() < p):
            self.packets_dropped += 1
            return
        self.packets_forwarded += 1
        self._emit(packet)


class AdjacentSwapReorderer(PathElement):
    """Swap adjacent packets with a configurable probability (dummynet mod).

    With the swap ``probability`` an arriving packet is held back; it
    is released immediately *after* the next packet passes, producing exactly
    one adjacent exchange.  If no follow-up packet arrives within
    ``max_hold_time`` the held packet is flushed so isolated packets are not
    delayed indefinitely.  The hold draw follows :class:`LossElement`'s rule.
    """

    def __init__(
        self,
        probability: float,
        rng: SeededRandom,
        max_hold_time: float = 0.03,
    ) -> None:
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"swap probability out of range: {probability}")
        if max_hold_time <= 0.0:
            raise ValueError(f"max hold time must be positive: {max_hold_time}")
        self.swap_probability = probability
        self.max_hold_time = max_hold_time
        self._rng = rng
        self._random = rng.random
        self._held: Optional[Packet] = None
        self._flush_event: Optional[Event] = None
        self.swaps_performed = 0
        self.holds_flushed = 0
        self.packets_seen = 0

    def handle_packet(self, packet: Packet) -> None:
        self.packets_seen += 1
        if self._held is not None:
            held = self._held
            self._held = None
            if self._flush_event is not None:
                self._flush_event.cancel()
                self._flush_event = None
            self.swaps_performed += 1
            self._emit(packet)
            self._emit(held)
            return
        p = self.swap_probability
        if p > 0.0 and (p >= 1.0 or self._random() < p):
            self._held = packet
            self._flush_event = self._sim.schedule(self.max_hold_time, self._flush_held)
            return
        self._emit(packet)

    def _flush_held(self) -> None:
        if self._held is None:
            return
        held = self._held
        self._held = None
        self._flush_event = None
        self.holds_flushed += 1
        self._emit(held)


class DelayJitterReorderer(PathElement):
    """Adds an independent random delay to every packet.

    Packets whose sampled delays invert their spacing arrive out of order.
    The delay is ``base_delay`` plus an exponentially distributed jitter with
    mean ``jitter_mean``.
    """

    def __init__(self, base_delay: float, jitter_mean: float, rng: SeededRandom) -> None:
        super().__init__()
        if base_delay < 0.0:
            raise ValueError(f"base delay cannot be negative: {base_delay}")
        if jitter_mean < 0.0:
            raise ValueError(f"jitter mean cannot be negative: {jitter_mean}")
        self.base_delay = base_delay
        self.jitter_mean = jitter_mean
        self._rng = rng
        self.packets_seen = 0

    def handle_packet(self, packet: Packet) -> None:
        self.packets_seen += 1
        jitter = self._rng.exponential(self.jitter_mean) if self.jitter_mean > 0.0 else 0.0
        self._emit_after(self.base_delay + jitter, packet)
