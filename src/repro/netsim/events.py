"""Event loop for the discrete-event simulation.

A classic calendar queue on :mod:`heapq`.  Simulated time is a float in
seconds, starts at 0 and only moves forward.  Events scheduled for the
same instant fire in scheduling order (a monotonically increasing
sequence number breaks ties), which keeps runs deterministic.

The loop carries a live-event counter (so :meth:`EventLoop.pending` is
O(1) and telemetry can sample queue depth every tick) and optional
profiling hooks: when :mod:`repro.obs` telemetry is active at
construction time, every fired callback is attributed to a named
callback site with its wall-time cost.  Profiling only observes — it
never reorders events or consumes RNG.

A long, precomputed run of callbacks (a broadcast's media timeline) can
be fed through one queue slot with :meth:`EventLoop.schedule_series`
instead of one queued event per item; the firing order is that of the
per-item schedule.  :meth:`EventLoop.close` drops everything still
queued, so a finished simulation holds no reference cycles through its
loop.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from repro import obs

_INF = float("inf")


class Event:
    """A scheduled callback.  Returned by :meth:`EventLoop.schedule` so the
    caller can :meth:`cancel` it."""

    __slots__ = ("time", "seq", "callback", "cancelled", "_loop")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        loop: Optional["EventLoop"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        loop, self._loop = self._loop, None
        if loop is not None:
            loop._live -= 1


class EventSeries:
    """A time-sorted run of callbacks fed through one queue slot.

    Built by :meth:`EventLoop.schedule_series`.  At most one queue entry
    exists for the whole series: firing item ``i`` re-arms the slot for
    item ``i + 1`` (before running item ``i``, so the queue holds what
    the per-item schedule would hold at that point) and then calls
    ``fire(entry)``.  The series lets go of each entry as it fires it.

    The slot's callback is this series' bound method, so the slot and
    the series refer to each other only while the slot is queued; the
    last item, :meth:`cancel` and :meth:`EventLoop.close` each leave
    the slot with no callback, and no cycle.
    """

    __slots__ = ("_loop", "_event", "_entries", "_fire", "_origin", "_seq0",
                 "_index")

    def __init__(self, loop: "EventLoop", entries: List[Tuple[Any, ...]],
                 fire: Callable[[Tuple[Any, ...]], None], seq0: int) -> None:
        self._loop = loop
        self._entries = entries
        self._fire: Optional[Callable[[Tuple[Any, ...]], None]] = fire
        self._origin = loop._now
        self._seq0 = seq0
        self._index = 0
        self._event: Optional[Event] = None
        if entries:
            # Exactly the float schedule_at(t) computes: now + (t - now).
            time = self._origin + (entries[0][0] - self._origin)
            self._event = Event(time, seq0, self._fire_next, loop=loop)
            heapq.heappush(loop._queue, (time, seq0, self._event))

    def _fire_next(self) -> None:
        entries = self._entries
        index = self._index
        entry = entries[index]
        entries[index] = None
        index += 1
        self._index = index
        fire = self._fire
        if index < len(entries):
            # step() reads the slot's time into ``now`` when it pops it.
            origin = self._origin
            event = self._event
            event.time = time = origin + (entries[index][0] - origin)
            event.seq = seq = self._seq0 + index
            event.callback = self._fire_next
            event._loop = loop = self._loop
            heapq.heappush(loop._queue, (time, seq, event))
        else:
            # Exhausted: hold on to nothing that could close a cycle.
            self._event = self._fire = None
        fire(entry)

    def cancel(self) -> None:
        """Drop every item not fired yet (idempotent)."""
        event, self._event = self._event, None
        if event is not None:
            loop = event._loop
            if loop is not None:
                # The slot stands for every remaining item in ``_live``;
                # Event.cancel() takes back one of them.
                loop._live -= len(self._entries) - self._index - 1
            event.cancel()
        self._entries = []
        self._index = 0
        self._fire = None


class EventLoop:
    """Deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._processed = 0
        self._live = 0
        self.queue_depth_high_water = 0
        #: Shared profiler when telemetry is active at construction; the
        #: common case is None and costs one attribute check per step.
        self.profiler = obs.active().loop_profiler()
        #: Fast-path micro-event engine (:mod:`repro.netsim.fastpath`);
        #: attaches itself when the first fast-lane connection is built.
        #: Micro-events always run interleaved in global (time, seq)
        #: order with real events, so the fast path cannot reorder
        #: anything relative to the exact path.
        self._fast = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks fired so far (diagnostics)."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        # One chained comparison rejects negative, NaN and +inf delays: a
        # NaN time compares false against everything, so it would break
        # the heap invariant and strand every later event.
        if not 0.0 <= delay < _INF:
            raise ValueError(
                f"delay must be finite and non-negative (delay={delay})"
            )
        event = Event(self._now + delay, next(self._seq), callback, loop=self)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        self._live += 1
        if self._live > self.queue_depth_high_water:
            self.queue_depth_high_water = self._live
            if self.profiler is not None:
                self.profiler.note_queue_depth(self._live)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        return self.schedule(time - self._now, callback)

    def schedule_series(self, entries: List[Tuple[Any, ...]],
                        fire: Callable[[Tuple[Any, ...]], None]) -> EventSeries:
        """Schedule ``fire(entry)`` at time ``entry[0]`` for every entry.

        ``entries`` must be sorted by time.  Fires in exactly the order,
        and at exactly the times, of ``schedule_at(entry[0], ...)``
        called once per entry in list order: the series takes one
        contiguous block of sequence numbers, so ties among its items
        and with every other event break as they would per item, and
        ``pending()`` counts each unfired item.  The series owns the
        list and clears each slot as it fires.
        """
        n = len(entries)
        if not n:
            return EventSeries(self, entries, fire, 0)
        now = self._now
        # Written so that a NaN anywhere fails a comparison.
        if not (0.0 <= entries[0][0] - now and entries[-1][0] - now < _INF
                and all(a[0] <= b[0] for a, b in zip(entries, entries[1:]))):
            raise ValueError(
                "series times must be sorted, finite and not in the past")
        seq0 = next(self._seq)
        # Take the rest of the block; consumed in C, as itertools.count
        # cannot jump ahead.
        deque(itertools.islice(self._seq, n - 1), maxlen=0)
        series = EventSeries(self, entries, fire, seq0)
        self._live += n
        if self._live > self.queue_depth_high_water:
            self.queue_depth_high_water = self._live
            if self.profiler is not None:
                self.profiler.note_queue_depth(self._live)
        return series

    def _pop_next(self) -> Optional[Event]:
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if not event.cancelled:
                self._live -= 1
                event._loop = None  # fired: a late cancel() must not decrement
                return event
        return None

    def _peek_live(self) -> Optional[Tuple[float, int, Event]]:
        """The earliest non-cancelled queue entry, purging dead heads.

        Called once per fast-path micro-event; the head is almost always
        live, so that case takes a single tuple access."""
        queue = self._queue
        if not queue:
            return None
        head = queue[0]
        if not head[2].cancelled:
            return head
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0] if queue else None

    def step(self) -> bool:
        """Run the next pending event (first draining any fast-path
        micro-events that precede it).  Returns False when nothing —
        event or micro-event — remains."""
        fast = self._fast
        if fast is not None and fast.active:
            fast.drain_before_events()
        event = self._pop_next()
        if event is None:
            return False
        self._now = event.time
        callback, event.callback = event.callback, None
        self._processed += 1
        assert callback is not None
        if self.profiler is not None:
            self.profiler.run_callback(self._now, callback)
        else:
            callback()
        return True

    def run(self, max_events: int = 50_000_000) -> None:
        """Run until no events remain.

        ``max_events`` is a runaway guard counting *fired* callbacks;
        exceeding it raises :class:`RuntimeError` rather than hanging the
        host process.
        """
        fired = 0
        while self.step():
            fired += 1
            if fired >= max_events and self._live > 0:
                raise RuntimeError(f"event loop exceeded {max_events} events")

    def run_until(self, time: float, max_events: int = 50_000_000) -> None:
        """Run events with timestamps ``<= time``; afterwards ``now`` equals
        ``time`` even if the queue went empty earlier.

        As in :meth:`run`, only fired callbacks count against
        ``max_events`` — purging cancelled queue entries is bookkeeping,
        not work.
        """
        if time < self._now:
            raise ValueError("cannot run backwards in time")
        fired = 0
        while True:
            # Purge cancelled entries so the peeked head is a live event —
            # otherwise step() could skip past the deadline.
            while self._queue and self._queue[0][2].cancelled:
                heapq.heappop(self._queue)
            if self._queue and self._queue[0][0] <= time:
                if fired >= max_events:
                    raise RuntimeError(
                        f"event loop exceeded {max_events} events")
                self.step()
                fired += 1
                continue
            # No real event is due: flush fast-path micro-events up to
            # the deadline.  Their handlers may schedule new real events
            # inside the window, so loop back around.
            fast = self._fast
            if fast is not None and fast.active and fast.drain_until(time):
                continue
            break
        self._now = time

    def pending(self) -> int:
        """Number of queued, non-cancelled events (O(1))."""
        return self._live

    def close(self) -> None:
        """Drop every queued event and the fast-path engine.

        Nothing pending fires afterwards.  Callbacks usually close over
        the objects that scheduled them, which are reachable from the
        loop again; dropping them is what lets a finished simulation be
        freed by reference counting.  ``now`` and ``events_processed``
        keep their values."""
        queue, self._queue = self._queue, []
        for _, _, event in queue:
            event.callback = None
            event._loop = None
        self._live = 0
        fast, self._fast = self._fast, None
        if fast is not None:
            fast.active.clear()
