"""Unit tests for the discrete-event loop."""

import pytest

from repro.netsim.events import EventLoop


def test_time_starts_at_zero():
    assert EventLoop().now == 0.0


def test_schedule_and_run_orders_by_time():
    loop = EventLoop()
    fired = []
    loop.schedule(2.0, lambda: fired.append("b"))
    loop.schedule(1.0, lambda: fired.append("a"))
    loop.schedule(3.0, lambda: fired.append("c"))
    loop.run()
    assert fired == ["a", "b", "c"]
    assert loop.now == 3.0


def test_same_time_fires_in_scheduling_order():
    loop = EventLoop()
    fired = []
    for tag in range(5):
        loop.schedule(1.0, lambda t=tag: fired.append(t))
    loop.run()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        EventLoop().schedule(-0.1, lambda: None)


def test_cancel_prevents_firing():
    loop = EventLoop()
    fired = []
    event = loop.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    loop.run()
    assert fired == []


def test_run_until_stops_and_sets_time():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(5.0, lambda: fired.append(5))
    loop.run_until(2.0)
    assert fired == [1]
    assert loop.now == 2.0
    loop.run()
    assert fired == [1, 5]


def test_run_until_rejects_past():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError):
        loop.run_until(0.5)


def test_events_can_schedule_events():
    loop = EventLoop()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            loop.schedule(1.0, lambda: chain(n + 1))

    loop.schedule(0.0, lambda: chain(0))
    loop.run()
    assert fired == [0, 1, 2, 3]
    assert loop.now == 3.0


def test_runaway_guard():
    loop = EventLoop()

    def forever():
        loop.schedule(0.001, forever)

    loop.schedule(0.0, forever)
    with pytest.raises(RuntimeError):
        loop.run(max_events=100)


def test_pending_counts_noncancelled():
    loop = EventLoop()
    e1 = loop.schedule(1.0, lambda: None)
    loop.schedule(2.0, lambda: None)
    e1.cancel()
    assert loop.pending() == 1


def test_schedule_at_absolute_time():
    loop = EventLoop()
    fired = []
    loop.schedule_at(2.5, lambda: fired.append(loop.now))
    loop.run()
    assert fired == [2.5]


# ------------------------------------------------ one-slot event series

from hypothesis import given, settings
from hypothesis import strategies as st

#: Few distinct offsets, so exact-time ties are common.
_offsets = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.0 + 1e-12]),
    st.floats(min_value=0.0, max_value=2.0),
)
#: What a fired callback does: nothing, schedule a child at the same
#: instant, schedule one 0.25 s later, or cancel what is left of the
#: series (from inside or outside it).
_actions = st.integers(min_value=0, max_value=3)


def _run_scenario(start, before, series, after, mid, use_series):
    """Fire a mixed schedule; return what was observed at each firing."""
    loop = EventLoop()
    log = []
    handles = []

    def fire(label, action):
        log.append((label, loop.now, loop.pending()))
        if action == 1:
            loop.schedule(0.0, lambda: fire(label + "/same", 0))
        elif action == 2:
            loop.schedule(0.25, lambda: fire(label + "/later", 1))
        elif action == 3:
            for handle in handles:
                handle.cancel()

    loop.run_until(start)
    for index, (offset, action) in enumerate(before):
        loop.schedule_at(start + offset, lambda i=index, a=action: fire(f"b{i}", a))
    entries = sorted(
        (start + offset, f"s{index}", action)
        for index, (offset, action) in enumerate(series)
    )
    if use_series:
        handles.append(loop.schedule_series(
            entries, lambda entry: fire(entry[1], entry[2])))
    else:
        for t, label, action in entries:
            handles.append(
                loop.schedule_at(t, lambda l=label, a=action: fire(l, a)))
    log.append(("scheduled", loop.now, loop.pending()))
    for index, (offset, action) in enumerate(after):
        loop.schedule_at(start + offset, lambda i=index, a=action: fire(f"a{i}", a))
    loop.run_until(start + mid)
    log.append(("mid", loop.now, loop.pending()))
    loop.run()
    return log, loop.events_processed, loop.queue_depth_high_water


@settings(max_examples=150, deadline=None)
@given(
    start=st.sampled_from([0.0, 0.3, 1.7]),
    before=st.lists(st.tuples(_offsets, _actions), max_size=6),
    series=st.lists(st.tuples(_offsets, _actions), max_size=12),
    after=st.lists(st.tuples(_offsets, _actions), max_size=6),
    mid=_offsets,
)
def test_series_fires_as_per_item_schedule_at(start, before, series, after, mid):
    per_item = _run_scenario(start, before, series, after, mid, False)
    assert _run_scenario(start, before, series, after, mid, True) == per_item


def test_series_releases_fired_entries_and_cancels():
    loop = EventLoop()
    fired = []
    entries = [(1.0, "a"), (1.0, "b"), (2.0, "c"), (3.0, "d")]
    series = loop.schedule_series(entries, lambda entry: fired.append(entry[1]))
    assert loop.pending() == 4
    loop.run_until(1.5)
    assert fired == ["a", "b"]
    assert entries[:2] == [None, None]
    assert loop.pending() == 2
    series.cancel()
    series.cancel()
    assert loop.pending() == 0
    loop.run()
    assert fired == ["a", "b"]


@pytest.mark.parametrize("entries", [
    [(2.0, "late"), (1.0, "early")],
    [(-1.0, "past")],
    [(float("nan"), "nan")],
    [(1.0, "ok"), (float("nan"), "nan"), (2.0, "ok")],
    [(1.0, "ok"), (float("inf"), "never")],
])
def test_series_rejects_unsorted_past_or_nonfinite_times(entries):
    with pytest.raises(ValueError):
        EventLoop().schedule_series(entries, lambda entry: None)


def test_close_drops_pending_events_and_series():
    loop = EventLoop()
    fired = []
    event = loop.schedule(1.0, lambda: fired.append("event"))
    loop.schedule_series([(2.0, "x")], lambda entry: fired.append(entry[1]))
    loop.run_until(0.5)
    loop.close()
    assert loop.pending() == 0
    event.cancel()  # a late cancel on a closed loop is harmless
    assert loop.pending() == 0
    loop.run()
    assert fired == []
    assert loop.now == 0.5
