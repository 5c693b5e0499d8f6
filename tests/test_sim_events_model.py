"""Property tests: the simulator's tuple-heap event queue against a naive model.

The :class:`~repro.sim.events.EventQueue` stores ``(time, seq, fn, arg)``
tuples in a lazy-deletion heap: packet hops with no handle, and cancellable
timers.  These tests drive a :class:`~repro.sim.simulator.Simulator` with
arbitrary interleavings of timer / hop / cancel / run / single-step
operations and compare every observable against a brutally simple model — a
sorted list with eager deletion — so ordering, cancellation and live
counting can never drift from the obvious semantics.  A cancelled timer must
never move the clock or count as processed, and a final test asserts runs
are schedule-order deterministic under interleaved cancels.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import Simulator


class ModelQueue:
    """Eager-deletion reference model: a sorted list of (time, seq) keys."""

    def __init__(self) -> None:
        self._entries: list[tuple[float, int]] = []
        self._seq = 0

    def push(self, time: float) -> tuple[float, int]:
        key = (time, self._seq)
        self._seq += 1
        self._entries.append(key)
        self._entries.sort()
        return key

    def cancel(self, key: tuple[float, int]) -> None:
        if key in self._entries:
            self._entries.remove(key)

    def pop(self):
        if not self._entries:
            return None
        return self._entries.pop(0)

    def peek_time(self):
        return self._entries[0][0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)


# A simulator schedule: timers and hops ``delay`` after the current clock
# (at times drawn from a small float range, so collisions exercise the
# insertion-order tie-break), cancels aimed at any earlier timer (pending,
# fired or cancelled), runs up to ``delay`` past the clock, and steps that
# fire exactly the next live entry.  The final drain runs until idle.
sim_op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["timer", "hop", "cancel", "run", "step"]),
        st.floats(min_value=0.0, max_value=2.0, width=16),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=80,
)

_HORIZON = 2.0
"""Every entry is scheduled at most ``_HORIZON`` after the clock, which only
moves forward, so a run of that length reaches any live entry."""


@given(sim_op_strategy)
@settings(max_examples=300, deadline=None)
def test_simulator_fires_hops_and_timers_like_the_model(ops):
    """Hops and timers interleave in (time, insertion) order through the
    simulator's run loop.  A cancelled timer is dropped when it reaches the
    top of the heap: it never moves the clock and never counts as processed,
    so an idle run stops the clock at the last entry that fired.  Cancels of
    fired and cancelled timers change nothing, so the live count stays the
    model's and is never negative."""
    sim = Simulator()
    model = ModelQueue()
    timers = []
    fired: list[tuple[float, tuple[float, int]]] = []  # (clock at firing, model key)

    def record(key: tuple[float, int]) -> None:
        fired.append((sim.now, key))

    def expect_run(deadline: float) -> list[tuple[float, tuple[float, int]]]:
        expected = []
        while model.peek_time() is not None and model.peek_time() <= deadline:
            key = model.pop()
            expected.append((key[0], key))
        return expected

    expected_fired: list[tuple[float, tuple[float, int]]] = []
    for op, delay, index in ops:
        if op == "timer":
            key = model.push(sim.now + delay)
            timers.append((sim.schedule(delay, lambda key=key: record(key)), key))
        elif op == "hop":
            key = model.push(sim.now + delay)
            sim.schedule_hop_at(key[0], record, key)
        elif op == "cancel" and timers:
            event, key = timers[index % len(timers)]
            sim.cancel(event)
            model.cancel(key)
        elif op == "run":
            deadline = sim.now + delay
            expected_fired += expect_run(deadline)
            sim.run_until_time(deadline)
            assert sim.now == deadline
        elif op == "step":
            # Fire exactly the next live entry, and stop the clock on it.
            processed = sim.processed_events
            stepped = sim.run_until(lambda: sim.processed_events > processed, timeout=_HORIZON)
            assert stepped == (len(model) > 0)
            if stepped:
                key = model.pop()
                expected_fired.append((key[0], key))
                assert sim.now == key[0]
        assert fired == expected_fired
        assert sim.processed_events == len(expected_fired)
        assert sim.pending_events == len(model)

    clock = sim.now
    drained = expect_run(float("inf"))
    expected_fired += drained
    sim.run_until_idle()
    assert fired == expected_fired
    assert sim.processed_events == len(expected_fired)
    assert sim.pending_events == 0
    # Only fired entries move the clock: trailing cancelled timers do not.
    assert sim.now == (drained[-1][0] if drained else clock)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0, width=16),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_simulator_schedule_order_deterministic_under_interleaved_cancels(plan):
    """Two simulators fed the same schedule (with the same subset cancelled
    mid-flight) execute identical (time, label) sequences."""

    def run() -> list[tuple[float, int]]:
        sim = Simulator()
        fired: list[tuple[float, int]] = []
        handles = []
        for label, (delay, _cancel) in enumerate(plan):
            handles.append(
                sim.schedule(delay, lambda label=label: fired.append((sim.now, label)))
            )
        for handle, (_delay, cancel) in zip(handles, plan):
            if cancel:
                sim.cancel(handle)
        sim.run_until_idle()
        return fired

    first = run()
    second = run()
    assert first == second
    cancelled_labels = {label for label, (_d, cancel) in enumerate(plan) if cancel}
    assert all(label not in cancelled_labels for _time, label in first)
    # Events fire in (time, insertion order): the label sequence must be
    # sorted by (time, label) because labels are assigned in push order.
    assert first == sorted(first, key=lambda item: (item[0], item[1]))