"""Tests for the clock, event queue, and simulator core."""

from __future__ import annotations

import pytest

from repro.net.errors import ClockError, SimulationError
from repro.sim.simulator import Simulator, Waiter


def test_clock_rejects_negative_start():
    with pytest.raises(ClockError):
        Simulator(start_time=-1.0)
    assert Simulator(start_time=2.5).now == 2.5


def test_event_queue_orders_by_time_then_insertion():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: fired.append("early-1"))
    sim.schedule(1.0, lambda: fired.append("early-2"))
    sim.run_until_idle()
    assert fired == ["early-1", "early-2", "late"]


def test_event_cancellation():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("keep"))
    drop = sim.schedule(0.5, lambda: fired.append("drop"))
    sim.cancel(drop)
    assert sim.pending_events == 1
    sim.run_until_idle()
    assert fired == ["keep"]
    assert sim.processed_events == 1  # the cancelled timer did not count


def test_simulator_schedule_and_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run_until_idle()
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0
    assert sim.processed_events == 2


def test_simulator_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_simulator_run_for_advances_clock_without_events():
    sim = Simulator()
    sim.run_for(3.5)
    assert sim.now == 3.5


def test_simulator_run_until_predicate():
    sim = Simulator()
    state = {"done": False}
    sim.schedule(0.5, lambda: state.update(done=True))
    assert sim.run_until(lambda: state["done"], timeout=1.0)
    assert sim.now == pytest.approx(0.5)


def test_simulator_run_until_timeout():
    sim = Simulator()
    assert not sim.run_until(lambda: False, timeout=0.25)
    assert sim.now == pytest.approx(0.25)


def test_simulator_run_until_does_not_overrun_deadline():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("too late"))
    sim.run_until(lambda: False, timeout=1.0)
    assert not fired
    assert sim.pending_events == 1


def test_nested_scheduling_during_events():
    sim = Simulator()
    seen = []

    def outer() -> None:
        seen.append(("outer", sim.now))
        sim.schedule(0.5, lambda: seen.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run_until_idle()
    assert seen == [("outer", 1.0), ("inner", 1.5)]


def test_cancel_scheduled_event_via_simulator():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    sim.cancel(event)
    sim.run_until_idle()
    assert not fired


def test_cancel_is_idempotent_on_pending_events():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending_events == 1


def test_cancel_after_fire_via_simulator_keeps_queue_consistent():
    """Regression: cancelling an already-fired event used to double-decrement
    the live count, driving it negative."""
    sim = Simulator()
    fired = []
    event = sim.schedule(0.5, lambda: fired.append("a"))
    sim.schedule(1.0, lambda: fired.append("b"))
    sim.run_for(0.6)
    sim.cancel(event)  # already fired: no-op
    sim.cancel(event)  # and idempotent
    assert sim.pending_events == 1
    sim.run_until_idle()
    assert fired == ["a", "b"]
    assert sim.pending_events == 0


def test_run_until_time_fires_event_exactly_at_deadline():
    """Tie-break: the deadline is inclusive, and the clock finishes there."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run_until_time(1.0)
    assert fired == [1.0]
    assert sim.now == 1.0


def test_run_until_idle_fires_event_exactly_at_max_time_and_parks_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run_until_idle(max_time=1.0)
    assert fired == [1.0]
    assert sim.now == 1.0
    assert sim.pending_events == 1


def test_run_until_idle_with_max_time_advances_clock_when_queue_drains_early():
    """Consistency: a bounded idle run always finishes at max_time, exactly
    like run_until_time, even when the last event lands before the deadline."""
    sim = Simulator()
    sim.schedule(0.25, lambda: None)
    sim.run_until_idle(max_time=2.0)
    assert sim.now == 2.0


def test_run_until_predicate_with_waiter_matches_polling():
    """The waiter discipline must stop on exactly the same event as polling."""

    def build() -> tuple[Simulator, Waiter, dict]:
        sim = Simulator()
        waiter = Waiter()
        state = {"hits": 0}
        sim.schedule(0.2, lambda: None)  # unrelated event: no wake
        def arrive() -> None:
            state["hits"] += 1
            waiter.wake()
        sim.schedule(0.5, arrive)
        sim.schedule(0.9, arrive)
        return sim, waiter, state

    sim_poll, _unused, state_poll = build()
    assert sim_poll.run_until(lambda: state_poll["hits"] >= 2, timeout=5.0)
    sim_wait, waiter, state_wait = build()
    assert sim_wait.run_until(lambda: state_wait["hits"] >= 2, timeout=5.0, waiter=waiter)
    assert sim_wait.now == sim_poll.now == pytest.approx(0.9)
    assert sim_wait.processed_events == sim_poll.processed_events


def test_run_until_with_waiter_times_out_with_final_check():
    sim = Simulator()
    waiter = Waiter()
    state = {"done": False}

    def flip() -> None:
        # State changes without a wake: the loop must still catch it in the
        # final at-deadline evaluation even though no wake ever arrives.
        state["done"] = True

    sim.schedule(0.5, flip)
    assert sim.run_until(lambda: state["done"], timeout=1.0, waiter=waiter)
    assert sim.now == pytest.approx(1.0)


def test_run_loop_clears_the_wake_flag_after_each_wake():
    """The predicate is re-checked once per wake, never after a quiet event."""
    sim = Simulator()
    waiter = Waiter()
    checked = []

    def predicate() -> bool:
        checked.append(sim.now)
        return False

    waiter.wake()  # a wake before the wait: the entry check already covers it
    sim.schedule(0.1, waiter.wake)
    sim.schedule(0.2, lambda: None)
    sim.schedule(0.3, waiter.wake)
    assert not sim.run_until(predicate, timeout=1.0, waiter=waiter)
    assert checked == [0.0, 0.1, 0.3, 1.0]
