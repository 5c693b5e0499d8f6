"""The discrete-event simulator driving every experiment in the library.

The measurement techniques are written in a simple blocking style: send some
packets, then ``run_until`` a reply (or a timeout) arrives.  Because the event
loop is deterministic and single-threaded, this gives reproducible experiments
without coroutine machinery.

Waiters
-------
``run_until`` supports two wait disciplines.  The polling fallback evaluates
the predicate after *every* event, which is always correct but wastes work
when most events (link departures, timer pops on other connections) cannot
possibly change the predicate's value.  The event-driven discipline takes a
:class:`Waiter`: endpoints call :meth:`Waiter.wake` when they mutate the
state the predicate reads (e.g. the probe host wakes its waiter on a
capture), and the loop re-evaluates the predicate only after a wake.  Both
disciplines stop on exactly the same event, so simulated clocks — and
therefore every recorded measurement — are bit-for-bit identical; only the
number of predicate evaluations differs.
"""

from __future__ import annotations

from heapq import heappop as _heappop
from typing import Any, Callable, Optional

from repro.net.errors import ClockError, SimulationError
from repro.sim.events import Event, EventQueue, fire_timer

_FOREVER = float("inf")


class Waiter:
    """A wake flag connecting a state-owning endpoint to ``run_until``.

    The endpoint calls :meth:`wake` whenever the state a waiting predicate
    might read has changed; after each event the run loop tests and clears
    the wake flag itself, and re-evaluates the predicate only when a wake
    happened.  A waiter may be shared by any number of sequential waits (the
    probe host keeps one for its whole capture buffer).
    """

    __slots__ = ("_signaled",)

    def __init__(self) -> None:
        self._signaled = False

    def wake(self) -> None:
        """Signal that predicate-visible state has changed."""
        self._signaled = True


class Simulator:
    """Deterministic discrete-event simulator.

    A single :class:`Simulator` instance owns the clock and the event queue
    for one experiment.  Network elements schedule packet deliveries on it;
    measurement code advances it with :meth:`run_until`, :meth:`run_for`, or
    :meth:`run_until_idle`.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        if start_time < 0.0:
            raise ClockError(f"clock cannot start before zero: {start_time}")
        self.now = float(start_time)
        """Current simulated time in seconds.  A plain attribute rather than a
        property: it is read on every packet hop and every event, and the
        descriptor dispatch was measurable.  Treat it as read-only — the run
        methods are the only writers."""
        self._events = EventQueue()
        self._processed = 0
        self.schedule_hop_at: Callable[[float, Callable[[Any], None], Any], None] = (
            self._events.push_hop
        )
        """Schedule the call ``fn(arg)`` at absolute time ``when``, with no
        handle and no not-in-the-past validation: the event queue's own
        ``push_hop``, bound once so a delayed packet hop is one call and one
        heap entry.  For path elements that have already established
        ``when >= now``; the queue's non-negative-time check still applies."""

    @property
    def pending_events(self) -> int:
        """Number of live events waiting to fire."""
        return len(self._events)

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0.0:
            raise SimulationError(f"delay cannot be negative: {delay}")
        return self._events.push(self.now + delay, callback)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent, safe after it fired)."""
        event.cancel()

    def run_until_idle(self, max_time: Optional[float] = None) -> None:
        """Run until no events remain, or until simulated time would pass ``max_time``.

        Events landing exactly *at* ``max_time`` still fire (the deadline is
        inclusive, matching :meth:`run_until_time`), and when ``max_time`` is
        given the clock always finishes there — even if the queue drained
        earlier — so a bounded idle run leaves time in a deterministic place.
        Without ``max_time`` the clock stops at the last event executed.
        """
        if max_time is None:
            self._advance(_FOREVER)
            return
        if max_time < self.now:
            raise SimulationError(f"max_time is in the past: {max_time} < {self.now}")
        self._advance(max_time)
        self.now = max_time

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time."""
        if duration < 0.0:
            raise SimulationError(f"duration cannot be negative: {duration}")
        self.run_until_time(self.now + duration)

    def run_until_time(self, deadline: float) -> None:
        """Run all events up to and including ``deadline``, then set the clock there."""
        if deadline < self.now:
            raise SimulationError(f"deadline is in the past: {deadline} < {self.now}")
        self._advance(deadline)
        self.now = deadline

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        waiter: Optional[Waiter] = None,
    ) -> bool:
        """Run until ``predicate()`` becomes true or ``timeout`` seconds elapse.

        Returns True when the predicate fired, False on timeout.  The
        predicate is always evaluated on entry and once more at the deadline.

        With no ``waiter`` the predicate is re-evaluated after every event,
        so it observes every intermediate state.  With a ``waiter`` it is
        re-evaluated only after events that called :meth:`Waiter.wake` —
        callers must guarantee the predicate's value can only change when the
        waiter is woken (the probe host's capture waiter satisfies this for
        its flow waits and for any predicate over captured packets).  Both disciplines stop the
        clock on exactly the same event.
        """
        if timeout < 0.0:
            raise SimulationError(f"timeout cannot be negative: {timeout}")
        deadline = self.now + timeout
        if predicate():
            return True
        if waiter is not None:
            waiter._signaled = False  # The entry check above observed current state.
        if self._advance(deadline, predicate, waiter):
            return True
        self.now = deadline
        return predicate()

    def _advance(
        self,
        deadline: float,
        predicate: Optional[Callable[[], bool]] = None,
        waiter: Optional[Waiter] = None,
    ) -> bool:
        """Fire every live entry due by ``deadline``, in (time, sequence) order.

        The one run loop behind every public run method.  It reads the
        queue's heap directly: each entry is ``(time, sequence, fn, arg)``
        and firing it is ``fn(arg)``, so a packet hop costs one pop and one
        call.  A timer whose ``fn`` is :func:`fire_timer` and whose handle
        was cancelled is dropped before the clock moves.

        Returns True as soon as ``predicate`` holds after an event —
        re-checked after every event, or with a ``waiter`` only after events
        that woke it — and False once no live entry is due.  The clock is
        left at the last event fired; bounded runs then park it at their
        deadline.
        """
        events = self._events
        heap = events._heap
        while heap:
            when, _sequence, fn, arg = heap[0]
            if when > deadline:
                return False
            _heappop(heap)
            if fn is fire_timer and arg._state:
                events._cancelled -= 1
                continue
            self.now = when
            self._processed += 1
            fn(arg)
            if predicate is not None:
                # The wake flag is read inline (same module) — one attribute
                # test per event instead of a method call.
                if waiter is None:
                    if predicate():
                        return True
                elif waiter._signaled:
                    waiter._signaled = False
                    if predicate():
                        return True
        return False

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"processed={self.processed_events})"
        )
