"""Tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import Event
from repro.sim.simulator import SimulationError, Simulator


def test_initial_time_is_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_schedule_at_runs_callback_at_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(3.0, lambda s: seen.append(s.now))
    sim.run_until(10.0)
    assert seen == [3.0]


def test_schedule_after_uses_relative_delay():
    sim = Simulator()
    seen = []
    sim.schedule_at(2.0, lambda s: s.schedule_after(1.5, lambda s2: seen.append(s2.now)))
    sim.run_until(10.0)
    assert seen == [3.5]


def test_schedule_in_the_past_raises():
    sim = Simulator()
    sim.schedule_at(5.0, lambda s: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda s: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().schedule_after(-1.0, lambda s: None)


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run_until(42.0)
    assert sim.now == 42.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule_at(5.0, lambda s: order.append("b"))
    sim.schedule_at(1.0, lambda s: order.append("a"))
    sim.schedule_at(9.0, lambda s: order.append("c"))
    sim.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule_at(1.0, lambda s, label=label: order.append(label))
    sim.run_until(2.0)
    assert order == list("abcde")


def test_priority_breaks_ties_before_sequence():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, lambda s: order.append("low"), priority=5)
    sim.schedule_at(1.0, lambda s: order.append("high"), priority=-5)
    sim.run_until(2.0)
    assert order == ["high", "low"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    handle = sim.schedule_at(1.0, lambda s: seen.append(1))
    handle.cancel()
    sim.run_until(2.0)
    assert seen == []
    assert handle.cancelled


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    seen = []
    sim.schedule_at(5.0, lambda s: seen.append(5))
    sim.schedule_at(15.0, lambda s: seen.append(15))
    sim.run_until(10.0)
    assert seen == [5]
    sim.run_until(20.0)
    assert seen == [5, 15]


def test_events_fired_counter_ignores_cancelled():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda s: None)
    sim.schedule_at(2.0, lambda s: None)
    handle.cancel()
    sim.run_until(3.0)
    assert sim.events_fired == 1


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule_at(1.0, lambda s: None)
    sim.schedule_at(2.0, lambda s: None)
    first.cancel()
    assert sim.peek_next_time() == 2.0


def test_peek_next_time_empty_queue_returns_none():
    assert Simulator().peek_next_time() is None


def test_stop_halts_run_loop():
    sim = Simulator()
    seen = []
    sim.schedule_at(1.0, lambda s: (seen.append(1), s.stop()))
    sim.schedule_at(2.0, lambda s: seen.append(2))
    sim.run_until(10.0)
    assert seen == [1]


def test_run_with_max_events():
    sim = Simulator()
    seen = []
    for t in range(5):
        sim.schedule_at(float(t), lambda s, t=t: seen.append(t))
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_event_fire_skips_cancelled_event_object():
    event = Event(time=1.0, callback=lambda s: (_ for _ in ()).throw(RuntimeError))
    event.cancelled = True
    event.fire(None)  # must not raise


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_all_events_fire_in_nondecreasing_time(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.schedule_at(t, lambda s: seen.append(s.now))
    sim.run_until(max(times))
    assert seen == sorted(seen)
    assert len(seen) == len(times)


# ------------------------------------------------------------ release series


def _push_up_front(sim, times, priority, callback):
    """The reference: every entry of a series pushed now, each with its own
    sequence number, in series order."""
    for index, time in enumerate(times):
        sim.schedule_at(time, lambda s, index=index: callback(s, index), priority=priority)


#: Priorities of the one-off and follow-up events; releases use -1.
_PRIORITIES = (-2, -1, 0)
#: ``None`` or the priority of a follow-up event scheduled at the same time.
_FOLLOW_UP = st.sampled_from((None,) + _PRIORITIES)


@st.composite
def _series_plans(draw):
    series = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 20), max_size=40).map(sorted),
                st.sampled_from(_PRIORITIES),
                _FOLLOW_UP,
            ),
            min_size=1,
            max_size=5,
        )
    )
    # Each one-off is scheduled just before the series its slot names.
    one_offs = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(series)),
                st.integers(0, 20),
                st.sampled_from(_PRIORITIES),
                _FOLLOW_UP,
            ),
            max_size=10,
        )
    )
    split = draw(st.integers(0, 20))
    return series, one_offs, split


def _firing_log(plan, schedule_series):
    series, one_offs, split = plan
    sim = Simulator()
    log = []

    def fire(s, label, follow_up):
        log.append((label, s.now))
        if follow_up is not None:
            s.schedule_at(
                s.now, lambda s2: log.append((("after",) + label, s2.now)), priority=follow_up
            )

    def schedule_one_offs(slot):
        for k, (at, time, priority, follow_up) in enumerate(one_offs):
            if at == slot:
                sim.schedule_at(
                    float(time),
                    lambda s, k=k, f=follow_up: fire(s, ("one-off", k), f),
                    priority=priority,
                )

    for n, (times, priority, follow_up) in enumerate(series):
        schedule_one_offs(n)
        schedule_series(
            sim,
            [float(time) for time in times],
            priority,
            # Only even entries follow up, so a series mixes both kinds.
            lambda s, index, n=n, f=follow_up: fire(
                s, ("series", n, index), f if index % 2 == 0 else None
            ),
        )
    schedule_one_offs(len(series))
    sim.run_until(float(split))
    sim.run_until(21.0)
    assert sim.pending_events == 0
    return log


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_series_plans())
def test_schedule_series_fires_as_pushing_every_entry_up_front(plan):
    series, one_offs, _ = plan
    log = _firing_log(plan, Simulator.schedule_series)
    assert log == _firing_log(plan, _push_up_front)
    assert len(log) >= sum(len(times) for times, _, _ in series) + len(one_offs)


def test_schedule_series_rejects_a_first_time_in_the_past():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_series([5.0 - 1e-6, 6.0], -1, lambda s, index: None)
    assert sim.pending_events == 0


def test_schedule_series_clamps_a_first_time_within_the_margin():
    sim = Simulator(start_time=5.0)
    seen = []

    def on_entry(s, index):
        seen.append((index, s.now))
        if index == 0:
            s.schedule_at(s.now, lambda s2: seen.append(("follow-up", s2.now)), priority=-2)

    sim.schedule_at(5.0, lambda s: seen.append(("one-off", s.now)), priority=-2)
    sim.schedule_series([5.0 - 5e-10, 5.0 - 2e-10, 7.0], -1, on_entry)
    sim.run_until(10.0)
    # Clamped to 5.0, entries 0 and 1 sort after the priority -2 events at 5.0.
    assert seen == [("one-off", 5.0), (0, 5.0), ("follow-up", 5.0), (1, 5.0), (2, 7.0)]


def test_schedule_series_of_no_times_schedules_nothing():
    sim = Simulator()
    sim.schedule_series([], -1, lambda s, index: pytest.fail("an empty series fired"))
    assert sim.pending_events == 0
    sim.run_until(1.0)
    assert sim.events_fired == 0
