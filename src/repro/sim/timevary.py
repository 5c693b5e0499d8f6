"""Time-varying path conditions.

The static elements in :mod:`repro.sim.reorder` hold their parameters for the
lifetime of a run, which is enough for controlled validation (§IV-A) but not
for the pathologies the survey crossed paths with (§IV-B): loss arrives in
episodes, reordering spikes when routes flap, and queue contention follows
the diurnal traffic cycle.  The elements here make those processes
first-class path conditions:

* :class:`GilbertElliottLossElement` — the classic two-state (good/bad) burst
  loss chain; long loss-free stretches punctuated by episodes in which most
  packets die.
* :class:`RouteFlapReorderer` — an adjacent-swap reorderer whose swap
  probability jumps during randomly timed "flap" episodes and relaxes to a
  quiet baseline between them.
* :class:`DiurnalCongestionElement` — a delay-jitter stage whose mean jitter
  is modulated sinusoidally over simulated time, so paths reorder more at
  (simulated) peak hours than off-peak.

Every element draws exclusively from the :class:`~repro.sim.random.SeededRandom`
handed to it and advances its internal schedule from ``sim.now`` alone, so a
run remains a pure function of its seed.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.net.packet import Packet
from repro.sim.path import PathElement
from repro.sim.random import SeededRandom
from repro.sim.reorder import AdjacentSwapReorderer


class GilbertElliottLossElement(PathElement):
    """Bursty loss from a two-state Markov chain (Gilbert–Elliott model).

    The element is in a *good* or *bad* state.  Each packet first advances the
    chain (good→bad with ``p_good_to_bad``, bad→good with ``p_bad_to_good``)
    and is then dropped with the loss probability of the resulting state.
    With a small ``good_loss``, a large ``bad_loss``, and asymmetric
    transition probabilities this produces the long quiet stretches and dense
    loss episodes of real congested paths.
    """

    def __init__(
        self,
        rng: SeededRandom,
        good_loss: float = 0.0,
        bad_loss: float = 0.3,
        p_good_to_bad: float = 0.005,
        p_bad_to_good: float = 0.2,
    ) -> None:
        super().__init__()
        for name, value in (
            ("good loss", good_loss),
            ("bad loss", bad_loss),
            ("good-to-bad probability", p_good_to_bad),
            ("bad-to-good probability", p_bad_to_good),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self._rng = rng
        self.in_bad_state = False
        self.bursts_entered = 0
        self.packets_dropped = 0
        self.packets_forwarded = 0

    def handle_packet(self, packet: Packet) -> None:
        if self.in_bad_state:
            if self._rng.bernoulli(self.p_bad_to_good):
                self.in_bad_state = False
        elif self._rng.bernoulli(self.p_good_to_bad):
            self.in_bad_state = True
            self.bursts_entered += 1
        loss = self.bad_loss if self.in_bad_state else self.good_loss
        if self._rng.bernoulli(loss):
            self.packets_dropped += 1
            return
        self.packets_forwarded += 1
        self._emit(packet)


class RouteFlapReorderer(AdjacentSwapReorderer):
    """Adjacent-swap reordering whose intensity spikes during route flaps.

    The element alternates between a *quiet* regime (swap probability
    ``base_swap_probability``) and a *flap* regime (``flap_swap_probability``).
    Episode boundaries are an alternating renewal process in simulated time:
    quiet intervals are exponential with mean ``mean_quiet_interval`` and flap
    episodes exponential with mean ``mean_flap_duration``.  The schedule is
    sampled lazily as packets arrive, so it consumes randomness (and hence
    perturbs nothing) only when traffic actually flows.
    """

    def __init__(
        self,
        rng: SeededRandom,
        base_swap_probability: float = 0.0,
        flap_swap_probability: float = 0.35,
        mean_quiet_interval: float = 30.0,
        mean_flap_duration: float = 3.0,
        max_hold_time: float = 0.03,
    ) -> None:
        super().__init__(base_swap_probability, rng, max_hold_time=max_hold_time)
        if not 0.0 <= flap_swap_probability <= 1.0:
            raise ValueError(f"flap swap probability out of range: {flap_swap_probability}")
        if mean_quiet_interval <= 0.0:
            raise ValueError(f"mean quiet interval must be positive: {mean_quiet_interval}")
        if mean_flap_duration <= 0.0:
            raise ValueError(f"mean flap duration must be positive: {mean_flap_duration}")
        self.base_swap_probability = base_swap_probability
        self.flap_swap_probability = flap_swap_probability
        self.mean_quiet_interval = mean_quiet_interval
        self.mean_flap_duration = mean_flap_duration
        self.flapping = False
        self.flaps_started = 0
        self._next_toggle: Optional[float] = None

    def _advance_schedule(self) -> None:
        now = self._sim.now
        if self._next_toggle is None:
            self._next_toggle = now + self._rng.exponential(self.mean_quiet_interval)
        while now >= self._next_toggle:
            self.flapping = not self.flapping
            if self.flapping:
                self.flaps_started += 1
                self._next_toggle += self._rng.exponential(self.mean_flap_duration)
            else:
                self._next_toggle += self._rng.exponential(self.mean_quiet_interval)
        self.swap_probability = (
            self.flap_swap_probability if self.flapping else self.base_swap_probability
        )

    def handle_packet(self, packet: Packet) -> None:
        self._advance_schedule()
        super().handle_packet(packet)


class DiurnalCongestionElement(PathElement):
    """Queue-contention jitter that follows a (simulated) daily cycle.

    Each packet receives an extra delay that is exponentially distributed
    with a *time-dependent* mean::

        mean(t) = peak_jitter * max(0, (1 + sin(2*pi*(t - phase)/period)) / 2)

    i.e. the jitter swings between zero (off-peak) and ``peak_jitter``
    (peak hour) once per ``period`` seconds of simulated time.  Packets whose
    sampled delays invert their spacing arrive reordered, so reordering rates
    measured at different simulated times of day differ — the property the
    scenario layer uses to model diurnal congestion.
    """

    def __init__(
        self,
        rng: SeededRandom,
        peak_jitter: float = 0.002,
        period: float = 86_400.0,
        phase: float = 0.0,
        base_delay: float = 0.0,
    ) -> None:
        super().__init__()
        if peak_jitter < 0.0:
            raise ValueError(f"peak jitter cannot be negative: {peak_jitter}")
        if period <= 0.0:
            raise ValueError(f"period must be positive: {period}")
        if base_delay < 0.0:
            raise ValueError(f"base delay cannot be negative: {base_delay}")
        self.peak_jitter = peak_jitter
        self.period = period
        self.phase = phase
        self.base_delay = base_delay
        self._rng = rng
        self.packets_seen = 0

    def jitter_mean_at(self, time: float) -> float:
        """The mean extra delay applied to a packet arriving at ``time``."""
        swing = (1.0 + math.sin(2.0 * math.pi * (time - self.phase) / self.period)) / 2.0
        return self.peak_jitter * max(0.0, swing)

    def handle_packet(self, packet: Packet) -> None:
        self.packets_seen += 1
        mean = self.jitter_mean_at(self._sim.now)
        jitter = self._rng.exponential(mean) if mean > 0.0 else 0.0
        self._emit_after(self.base_delay + jitter, packet)
