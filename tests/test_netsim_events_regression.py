"""Regression: run_until must not execute past-deadline events when a
cancelled event with an earlier timestamp sits at the heap head."""

import pytest

from repro.netsim.events import EventLoop


def test_cancelled_head_does_not_leak_later_events():
    loop = EventLoop()
    fired = []
    early = loop.schedule(1.0, lambda: fired.append("early"))
    loop.schedule(5.0, lambda: fired.append("late"))
    early.cancel()
    loop.run_until(2.0)
    assert fired == []          # the 5.0 event must NOT have fired
    assert loop.now == 2.0
    loop.run()
    assert fired == ["late"]


def test_many_cancelled_heads():
    loop = EventLoop()
    fired = []
    cancelled = [loop.schedule(0.5 + i * 0.01, lambda: fired.append("x"))
                 for i in range(20)]
    for event in cancelled:
        event.cancel()
    loop.schedule(3.0, lambda: fired.append("keep"))
    loop.run_until(1.0)
    assert fired == []
    loop.run_until(3.5)
    assert fired == ["keep"]


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1e-9])
def test_non_finite_or_negative_delay_rejected(delay):
    """A NaN time compares false against everything: once on the heap it
    breaks the heap invariant and no later event ever fires.  The loop
    must refuse it (and +inf) up front, leaving the queue usable."""
    loop = EventLoop()
    fired = []
    with pytest.raises(ValueError):
        loop.schedule(delay, lambda: fired.append("bad"))
    with pytest.raises(ValueError):
        loop.schedule_at(delay, lambda: fired.append("bad"))
    loop.schedule(1.0, lambda: fired.append(1.0))
    loop.schedule(0.5, lambda: fired.append(0.5))
    loop.run_until(2.0)
    assert fired == [0.5, 1.0]
    assert loop.pending() == 0
