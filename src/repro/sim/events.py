"""The event queue underlying the simulator.

Entries are ordered by (time, insertion sequence) so that simultaneous
entries fire in the order they were scheduled, which keeps runs fully
deterministic for a given seed.

The heap stores plain ``(time, sequence, fn, arg)`` tuples, and firing an
entry is the one call ``fn(arg)``.  Tuple comparison is implemented in C and
never calls back into Python (``sequence`` is unique, so ``fn`` and ``arg``
are never compared).  Two kinds of entry share the heap and one sequence
counter:

* a *hop* (:meth:`EventQueue.push_hop`) is ``(time, sequence, downstream,
  packet)``: a packet reaching the next path element.  Nothing ever cancels
  or reads a hop, so it carries no handle and no closure.
* a *timer* (:meth:`EventQueue.push`) is ``(time, sequence, fire_timer,
  event)``: the :class:`Event` it carries is the cancellation handle ``push``
  returns, and ``fire_timer(event)`` runs the event's callback.

Cancellation is lazy: a cancelled timer stays in the heap and is dropped when
it reaches the top, without moving the clock or counting as processed.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from heapq import heappush as _heappush

from repro.net.errors import SimulationError

EventCallback = Callable[[], None]
Entry = tuple[float, int, Callable[[Any], None], Any]

# Event lifecycle states.  A timer leaves PENDING exactly once: to FIRED when
# it reaches the top of the heap, or to CANCELLED by ``cancel`` (counted in
# ``EventQueue._cancelled`` until the heap drops it).  That single transition
# is what makes ``cancel`` idempotent and safe to call on a timer that
# already fired.  PENDING is 0, so a timer in the heap is cancelled exactly
# when its state is truthy.
_PENDING = 0
_FIRED = 1
_CANCELLED = 2


class Event:
    """A scheduled callback: the cancellation handle returned by ``push``.

    Cancelled events stay in the heap but are skipped when popped, which
    makes cancellation O(1) — the standard lazy-deletion trick.
    """

    __slots__ = ("time", "sequence", "callback", "_state", "_queue")

    def __init__(self, time: float, sequence: int, callback: EventCallback,
                 queue: "EventQueue") -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self._state = _PENDING
        self._queue = queue

    def cancel(self) -> None:
        """Mark this event so the event loop skips it (idempotent).

        Safe to call at any point in the event's life: cancelling an event
        that already fired (or was already cancelled) is a no-op, so the
        queue's live count never goes negative.
        """
        if self._state == _PENDING:
            self._state = _CANCELLED
            self._queue._cancelled += 1

    def __repr__(self) -> str:
        state = {_PENDING: "pending", _FIRED: "fired", _CANCELLED: "cancelled"}[self._state]
        return f"Event(time={self.time!r}, sequence={self.sequence}, {state})"


def fire_timer(event: Event) -> None:
    """Fire a timer entry: the ``fn`` of every entry that ``push`` makes.

    The run loop has already checked that ``event`` is still pending.
    """
    event._state = _FIRED
    event.callback()


class EventQueue:
    """A deterministic min-heap of ``(time, sequence, fn, arg)`` entries.

    The live count is the heap's length minus the cancelled timers still in
    it, so pushing and firing a hop touch no counter at all.
    """

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._next_sequence = itertools.count().__next__
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def push(self, time: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` at absolute simulated ``time`` and return its handle."""
        if time < 0.0:
            raise SimulationError(f"cannot schedule an event before time zero: {time}")
        sequence = self._next_sequence()
        event = Event(time, sequence, callback, self)
        _heappush(self._heap, (time, sequence, fire_timer, event))
        return event

    def push_hop(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule the call ``fn(arg)`` at absolute simulated ``time``.

        The entry gets no handle, so it cannot be cancelled: this is the
        packet-hop path, one heap push per delayed packet.
        """
        if time < 0.0:
            raise SimulationError(f"cannot schedule an event before time zero: {time}")
        _heappush(self._heap, (time, self._next_sequence(), fn, arg))
