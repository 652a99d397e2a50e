"""The playout buffer and its QoE accounting.

Media availability is a single monotone frontier ``buffered_until`` (the
player conceals isolated missing frames, so playability is contiguous).
Playback starts once ``start_threshold_s`` of media is buffered, stalls
whenever the playhead catches the frontier, and resumes once
``rebuffer_threshold_s`` accumulates again.

The buffer also derives **playback latency**: while playing, the wall
clock and the playhead advance in lockstep, so each playing interval has
a constant end-to-end latency ``t - (broadcast_start + playhead(t))``;
the session value is the time-weighted mean over playing intervals.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.netsim.events import Event, EventLoop
from repro.obs.metrics import Histogram, MetricsRegistry


@dataclass
class StallEvent:
    """One rebuffering interruption during playback.

    Defined here — the player layer is what observes stalls — and
    re-exported by :mod:`repro.core.qoe` for the dataset API.

    ``causes`` is populated only when cause attribution is enabled
    (``--explain``): seconds per upstream cause, clamped so they sum to
    at most ``duration``.  ``None`` otherwise, so QoE stays bit-identical
    with attribution off.
    """

    start: float
    duration: float
    causes: Optional[Dict[str, float]] = None


@dataclass
class PlaybackReport:
    """What one session's buffer observed (app's playbackMeta equivalent)."""

    started: bool
    join_time_s: float
    playback_s: float
    stalls: List[StallEvent]
    mean_playback_latency_s: Optional[float]
    #: Per-cause seconds for the join wait (attribution opt-in only).
    join_causes: Optional[Dict[str, float]] = None

    @property
    def stall_count(self) -> int:
        return len(self.stalls)

    @property
    def total_stall_s(self) -> float:
        return sum(s.duration for s in self.stalls)


class PlayoutBuffer:
    """Event-driven playout model over a session's event loop."""

    def __init__(
        self,
        loop: EventLoop,
        start_threshold_s: float,
        rebuffer_threshold_s: float,
        broadcast_start: float,
        session_start: float = 0.0,
    ) -> None:
        if start_threshold_s <= 0 or rebuffer_threshold_s <= 0:
            raise ValueError("thresholds must be positive")
        self.loop = loop
        self.start_threshold_s = start_threshold_s
        self.rebuffer_threshold_s = rebuffer_threshold_s
        self.broadcast_start = broadcast_start
        self.session_start = session_start

        self._buffered_until: Optional[float] = None  # media frontier (pts)
        self._play_origin: Optional[float] = None     # pts where playback begins
        self._playing = False
        self._started_at: Optional[float] = None
        self._anchor_media = 0.0   # playhead pts at _anchor_time
        self._anchor_time = 0.0
        self._stall_event: Optional[Event] = None
        self._stall_started_at: Optional[float] = None
        self._stalls: List[StallEvent] = []
        #: (duration, latency) per completed playing interval.
        self._intervals: List[Tuple[float, float]] = []
        self._finalized = False
        #: Cause-ledger snapshots bounding the join and current-stall
        #: attribution windows (None unless attribution is enabled).
        self._causes_join_base: Optional[Dict[str, float]] = None
        self._causes_stall_base: Optional[Dict[str, float]] = None
        self.join_causes: Optional[Dict[str, float]] = None
        #: Buffer-level histogram child, bound on the first metered
        #: arrival to the registry ``_metrics_ref`` points at (weakly, as
        #: :class:`~repro.netsim.link.Link` binds its per-packet children).
        self._metrics_ref: Optional["weakref.ref[MetricsRegistry]"] = None
        self._level_metric: Optional[Histogram] = None
        telemetry = obs.active()
        if telemetry.enabled and telemetry.causes_on:
            # The session's ledger bucket starts empty at session start
            # (contexts are per-session), so the join window's base is
            # the empty snapshot — it must include delays accrued before
            # the buffer exists (API retries, packaging of the first
            # segments), not just post-construction ones.
            self._causes_join_base = {}

    # ------------------------------------------------------------- ingestion

    def on_media(self, upto_pts: float) -> None:
        """The playable frontier grew to ``upto_pts`` (monotone max)."""
        if self._finalized:
            return
        if self._buffered_until is None:
            self._buffered_until = upto_pts
            # Default origin: the first frontier seen.  set_play_origin
            # may pin a different one, but only before playback starts.
            self._play_origin = upto_pts
        if upto_pts <= self._buffered_until and self._playing:
            return
        self._buffered_until = max(self._buffered_until, upto_pts)
        telemetry = obs.active()
        if telemetry.enabled and telemetry.health_on and self._playing:
            gap = self._buffered_until - self._playhead(self.loop.now)
            ok = gap >= -1e-9
            telemetry.health.check(
                "player.buffer_nonnegative", ok, "" if ok else
                f"frontier-playhead gap {gap:.6f}s at t={self.loop.now:.3f}",
            )
        if telemetry.enabled and telemetry.metrics_on:
            metrics = telemetry.metrics
            ref = self._metrics_ref
            if ref is None or ref() is not metrics:
                self._metrics_ref = weakref.ref(metrics, self._drop_metrics)
                self._level_metric = metrics.histogram(
                    "player_buffer_level_seconds",
                    "Playable media ahead of the playhead, sampled per arrival",
                    buckets=(0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
                )
            self._level_metric.observe(self.buffer_level_s())
        if not self._playing:
            self._maybe_start_or_resume()
        else:
            self._reschedule_underrun()

    def _drop_metrics(self, ref: "weakref.ref[MetricsRegistry]") -> None:
        """The bound registry died: release the child it owned."""
        self._metrics_ref = None
        self._level_metric = None

    def set_play_origin(self, pts: float) -> None:
        """Pin where the playhead will start (e.g. an HLS segment start).

        Must be called before playback starts; by default the origin is
        the first media frontier seen.
        """
        if self._started_at is not None:
            raise RuntimeError("playback already started")
        self._play_origin = pts
        if self._buffered_until is None:
            self._buffered_until = pts

    # -------------------------------------------------------------- playback

    def _playhead(self, now: float) -> float:
        if not self._playing:
            return self._anchor_media
        return self._anchor_media + (now - self._anchor_time)

    @property
    def buffered_until(self) -> Optional[float]:
        return self._buffered_until

    @property
    def playing(self) -> bool:
        return self._playing

    def buffer_level_s(self) -> float:
        """Seconds of playable media ahead of the playhead."""
        if self._buffered_until is None:
            return 0.0
        return max(0.0, self._buffered_until - self._playhead(self.loop.now))

    def _maybe_start_or_resume(self) -> None:
        assert self._buffered_until is not None
        now = self.loop.now
        if self._started_at is None:
            assert self._play_origin is not None
            if self._buffered_until - self._play_origin >= self.start_threshold_s:
                self._started_at = now
                self._anchor_media = self._play_origin
                telemetry = obs.active()
                if telemetry.enabled and telemetry.metrics_on:
                    telemetry.metrics.histogram(
                        "player_join_seconds",
                        "Session start to first displayed frame",
                    ).observe(now - self.session_start)
                if telemetry.enabled and telemetry.causes_on:
                    self._record_join_window(telemetry, now)
                self._begin_playing(now)
        elif self._stall_started_at is not None:
            if self._buffered_until - self._anchor_media >= self.rebuffer_threshold_s:
                stall_duration = now - self._stall_started_at
                event = StallEvent(
                    start=self._stall_started_at,
                    duration=stall_duration,
                )
                self._stalls.append(event)
                self._stall_started_at = None
                telemetry = obs.active()
                if telemetry.enabled and telemetry.metrics_on:
                    telemetry.metrics.counter(
                        "player_stall_ends_total", "Stalls that recovered",
                    ).inc()
                    telemetry.metrics.histogram(
                        "player_stall_seconds", "Recovered stall durations",
                    ).observe(stall_duration)
                if telemetry.enabled and telemetry.causes_on:
                    self._record_stall_window(telemetry, event)
                self._begin_playing(now)

    def _begin_playing(self, now: float) -> None:
        self._playing = True
        self._anchor_time = now
        self._reschedule_underrun()

    def _reschedule_underrun(self) -> None:
        if self._stall_event is not None:
            self._stall_event.cancel()
            self._stall_event = None
        if not self._playing:
            return
        assert self._buffered_until is not None
        underrun_at = self._anchor_time + (self._buffered_until - self._anchor_media)
        self._stall_event = self.loop.schedule_at(
            max(underrun_at, self.loop.now), self._on_underrun
        )

    def _on_underrun(self) -> None:
        now = self.loop.now
        self._close_interval(now)
        self._playing = False
        self._anchor_media = self._buffered_until if self._buffered_until is not None else 0.0
        self._stall_started_at = now
        self._stall_event = None
        telemetry = obs.active()
        if telemetry.enabled and telemetry.metrics_on:
            telemetry.metrics.counter(
                "player_stalls_total", "Playback underruns (stall begins)",
            ).inc()
        if telemetry.enabled and telemetry.causes_on:
            # Snapshot the ledger as the stall opens; the delta when it
            # closes is what delayed media during this stall.
            self._causes_stall_base = telemetry.causes.totals()

    def _record_join_window(self, telemetry, now: float) -> None:
        if self._causes_join_base is None:
            return
        record = telemetry.causes.record_window(
            "join",
            start=self.session_start,
            duration=now - self.session_start,
            base=self._causes_join_base,
        )
        self.join_causes = record.causes
        self._causes_join_base = None

    def _record_stall_window(self, telemetry, event: StallEvent) -> None:
        if self._causes_stall_base is None:
            return
        record = telemetry.causes.record_window(
            "stall",
            start=event.start,
            duration=event.duration,
            base=self._causes_stall_base,
        )
        event.causes = record.causes
        self._causes_stall_base = None

    def _close_interval(self, now: float) -> None:
        duration = now - self._anchor_time
        if duration > 0:
            latency = self._anchor_time - self._anchor_media - self.broadcast_start
            self._intervals.append((duration, latency))

    # ------------------------------------------------------------- reporting

    def finalize(self, end_time: float) -> PlaybackReport:
        """Stop the clock at ``end_time`` and produce the session report.

        A stall in progress runs to the end of the session; a session that
        never started playing is all join time (the paper computes join
        time as 60 s minus playback and stall time, so an unstarted
        session has join time 60 s).
        """
        if self._finalized:
            raise RuntimeError("already finalized")
        self._finalized = True
        if self._stall_event is not None:
            self._stall_event.cancel()
            self._stall_event = None
        # No arrival is metered after this; the weak reference's
        # callback would otherwise tie the buffer into a cycle.
        self._metrics_ref = self._level_metric = None
        watch = end_time - self.session_start
        telemetry = obs.active()
        if self._started_at is None:
            # The whole session was join wait; close its window here.
            if telemetry.enabled and telemetry.causes_on:
                self._record_join_window(telemetry, end_time)
            return PlaybackReport(
                started=False,
                join_time_s=watch,
                playback_s=0.0,
                stalls=[],
                mean_playback_latency_s=None,
                join_causes=self.join_causes,
            )
        if self._playing:
            self._close_interval(end_time)
            self._playing = False
        elif self._stall_started_at is not None:
            event = StallEvent(
                start=self._stall_started_at,
                duration=end_time - self._stall_started_at,
            )
            self._stalls.append(event)
            self._stall_started_at = None
            if telemetry.enabled and telemetry.causes_on:
                self._record_stall_window(telemetry, event)
        playback = sum(d for d, _ in self._intervals)
        mean_latency = (
            sum(d * l for d, l in self._intervals) / playback
            if playback > 0 else None
        )
        if telemetry.enabled and telemetry.health_on:
            total_stall = sum(s.duration for s in self._stalls)
            join = self._started_at - self.session_start
            ok = 0.0 <= total_stall <= watch + 1e-9
            telemetry.health.check(
                "player.stall_within_watch", ok, "" if ok else
                f"stall {total_stall:.3f}s over watch {watch:.3f}s",
            )
            ok = abs(join + playback + total_stall - watch) <= 1e-6
            telemetry.health.check(
                "player.accounting_consistent", ok, "" if ok else
                f"join {join:.3f} + playback {playback:.3f} + "
                f"stall {total_stall:.3f} != watch {watch:.3f}",
            )
        return PlaybackReport(
            started=True,
            join_time_s=self._started_at - self.session_start,
            playback_s=playback,
            stalls=list(self._stalls),
            mean_playback_latency_s=mean_latency,
            join_causes=self.join_causes,
        )
