"""Per-packet striping across parallel links: the physical reordering model.

Section IV-C of the paper attributes in-network reordering to per-packet
striping across multiple layer-2 links: a newer packet placed on a link with
a shorter queue can overtake an older packet on a longer queue, and because
queues drain at a constant rate the probability of an overtake falls as the
inter-arrival gap between the two packets grows.  :class:`StripedPathModel`
implements exactly that mechanism and is what the Figure 7 reproduction runs
against.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.sim.link import BITS_PER_BYTE
from repro.sim.path import PathElement
from repro.sim.random import SeededRandom


class StripedPathModel(PathElement):
    """A bundle of parallel FIFO links with stochastic queue imbalance.

    Each arriving packet is assigned to one of ``num_links`` member links.
    Assignment is "sticky": with probability ``switch_probability`` the
    striper moves to a different link for the next packet, otherwise it stays,
    which models round-robin / hash stripers that only sometimes separate
    consecutive packets of a probe flow.

    Each link has an independent queueing backlog.  On every packet arrival
    the backlog seen on the chosen link is the larger of (a) the residual
    backlog left by previous packets through this model and (b) a freshly
    sampled cross-traffic backlog, exponentially distributed with mean
    ``queue_imbalance_scale`` seconds.  Within a link FIFO order is enforced,
    so reordering can only happen between packets striped onto different
    links — the mechanism hypothesised by the paper.
    """

    def __init__(
        self,
        rng: SeededRandom,
        num_links: int = 2,
        link_rate_bps: float = 1e9,
        base_delay: float = 0.0,
        queue_imbalance_scale: float = 30e-6,
        switch_probability: float = 0.5,
        imbalance_probability: float = 0.6,
    ) -> None:
        super().__init__()
        if num_links < 2:
            raise ValueError(f"striping requires at least two links: {num_links}")
        if link_rate_bps <= 0.0:
            raise ValueError(f"link rate must be positive: {link_rate_bps}")
        if queue_imbalance_scale < 0.0:
            raise ValueError(f"queue imbalance scale cannot be negative: {queue_imbalance_scale}")
        if not 0.0 <= switch_probability <= 1.0:
            raise ValueError(f"switch probability out of range: {switch_probability}")
        if not 0.0 <= imbalance_probability <= 1.0:
            raise ValueError(f"imbalance probability out of range: {imbalance_probability}")
        self.num_links = num_links
        self.link_rate_bps = link_rate_bps
        self.base_delay = base_delay
        self.queue_imbalance_scale = queue_imbalance_scale
        self.switch_probability = switch_probability
        self.imbalance_probability = imbalance_probability
        self._rng = rng
        self._random = rng.random
        self._busy_until = [0.0] * num_links
        self._current_link = 0
        self.packets_seen = 0
        self.link_assignments = [0] * num_links

    def handle_packet(self, packet: Packet) -> None:
        # Both draws follow :meth:`SeededRandom.bernoulli`'s rule on the
        # stream's own ``random``: no draw at probability 0 or 1.
        sim = self._sim
        now = sim.now
        p = self.switch_probability
        if p > 0.0 and (p >= 1.0 or self._random() < p):
            offset = self._rng.randint(1, self.num_links - 1)
            self._current_link = (self._current_link + offset) % self.num_links
        link = self._current_link
        self.packets_seen += 1
        self.link_assignments[link] += 1

        p = self.imbalance_probability
        if p > 0.0 and (p >= 1.0 or self._random() < p):
            cross_backlog = self._rng.exponential(self.queue_imbalance_scale)
        else:
            cross_backlog = 0.0
        start = max(now + cross_backlog, self._busy_until[link])
        departure = start + packet.wire_length * BITS_PER_BYTE / self.link_rate_bps
        self._busy_until[link] = departure
        when = departure + self.base_delay
        if when <= now:
            self._emit(packet)
        else:
            sim.schedule_hop_at(when, self._emit, packet)
