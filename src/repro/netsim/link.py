"""Links: rate-limited, delayed, FIFO packet conduits.

A link serializes packets at ``rate_bps`` and delivers each after a fixed
propagation delay.  Because all flows traversing a link share one FIFO
serialization queue, bandwidth sharing and cross-traffic interference
(e.g. chat avatar downloads delaying video packets) emerge naturally.

:class:`TokenBucketShaper` models the ``tc`` token-bucket filter the paper
used on the tethering host to impose artificial bandwidth limits.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro import obs
from repro.faults.impair import LinkImpairment
from repro.netsim.events import EventLoop
from repro.netsim.packet import Packet
from repro.obs.metrics import Counter, Histogram, MetricsRegistry

#: Rounding slack of the O(1) utilization bound: far above the
#: accumulated float error of ``_gap_total`` and the gap rescan at
#: simulated horizons, so a passing bound implies a passing exact check.
_GAP_BOUND_EPS = 1e-9

PacketSink = Callable[[Packet], None]
PacketTap = Callable[[Packet, float], None]
#: ``(timestamp, segment, flow_id, is_ack)``: how the fast path reports a
#: :class:`~repro.netsim.fastpath` segment entering a tapped link.
SegmentTap = Callable[[float, Any, int, bool], None]


def _packet_view(observer: PacketTap) -> SegmentTap:
    """Adapt a plain packet observer to fast-path segments: it is shown
    a :class:`Packet` built from the segment, as on the exact path."""

    def view(timestamp: float, segment, flow_id: int, is_ack: bool) -> None:
        if is_ack:
            observer(segment.as_ack_packet(flow_id), timestamp)
        else:
            observer(segment.as_data_packet(flow_id), timestamp)

    return view


class Link:
    """Unidirectional link with serialization rate and propagation delay.

    ``deliver`` is called with each packet once it has fully crossed the
    link.  Observers registered with :meth:`tap` see packets at the moment
    they *enter* the link (like tcpdump on the sending interface).

    An optional :class:`~repro.faults.impair.LinkImpairment` injects
    loss/jitter/flap delay; it only ever pushes the busy horizon later,
    so the link stays a FIFO and the reliable-stream layer above needs
    no changes.
    """

    def __init__(
        self,
        loop: EventLoop,
        rate_bps: float,
        delay_s: float,
        name: str = "link",
        shaper: Optional["TokenBucketShaper"] = None,
        impairment: Optional[LinkImpairment] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay_s < 0:
            raise ValueError("link delay must be non-negative")
        self.loop = loop
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.name = name
        self.shaper = shaper
        self.impairment = impairment
        self.deliver: Optional[PacketSink] = None
        self._busy_until = 0.0
        #: Total serialization time ever scheduled (including the tail of
        #: packets still queued or on the wire).
        self._busy_time_scheduled = 0.0
        #: Loss-recovery time still occupying the busy horizon: queue
        #: wait behind it is HOL blocking caused by retransmissions, and
        #: attribution charges it to loss recovery, not the queue.
        self._recovery_backlog_s = 0.0
        #: Wall-clock frontier up to which queue waiting has been charged
        #: to attribution.  Per-packet waits overlap (every queued packet
        #: waits through the same busy interval), so attribution charges
        #: the *union* of waiting intervals — the wall-clock seconds some
        #: packet was queued — which is the delay the frontier packet,
        #: and hence the player, actually experiences.
        self._queue_charged_until = 0.0
        #: Idle intervals inside the busy horizon: a shaper or impairment
        #: deferral leaves the wire silent between the previous packet's
        #: end and the deferred start, yet ``_busy_until`` spans the gap.
        #: Gaps wholly in the past are pruned whenever a gap is added or
        #: pending work is measured.
        self._gaps: Deque[Tuple[float, float]] = deque()
        #: Running sum of the lengths of the gaps in ``_gaps``, so the
        #: per-packet health check can bound pending work in O(1).
        self._gap_total = 0.0
        #: Per-packet metric children, bound on the first metered packet
        #: to the registry ``_metrics_ref`` points at and rebound whenever
        #: the active registry changes.  The reference is weak and drops
        #: the children when the registry dies: a finished session's
        #: links wait for the cyclic collector, and must not keep the
        #: run's histograms alive until then.
        self._metrics_ref: Optional["weakref.ref[MetricsRegistry]"] = None
        self._packets_metric: Counter
        self._bytes_metric: Counter
        self._queue_delay_metric: Histogram
        self._throttle_metric: Optional[Counter] = None
        self._impair_metric: Optional[Counter] = None
        #: Tap observers in registration order: ``_taps`` for packets on
        #: the exact path, ``_segment_taps`` (same order, same length)
        #: for fast-path segments.  Both lists keep their identity —
        #: fast-path lanes hold a reference to ``_segment_taps``.
        self._taps: List[PacketTap] = []
        self._segment_taps: List[SegmentTap] = []
        self.bytes_carried = 0
        self.packets_carried = 0

    def tap(self, observer: PacketTap,
            segment_observer: Optional[SegmentTap] = None) -> None:
        """Register a capture observer (tcpdump-like, ingress side).

        ``observer`` sees every packet entering the link as a
        :class:`Packet`.  A capture that can record fast-path segments
        without that view passes ``segment_observer``, which the fast
        path calls instead; otherwise the fast path builds the view.
        """
        self._taps.append(observer)
        self._segment_taps.append(segment_observer or _packet_view(observer))

    def untap(self, observer: PacketTap) -> None:
        """Remove a previously registered observer."""
        index = self._taps.index(observer)
        del self._taps[index]
        del self._segment_taps[index]

    def close(self) -> None:
        """Drop the downstream sink, the tap observers and the metric
        children.  A link and its receiving host refer to each other,
        so a finished topology is only freed by reference counting once
        its links are closed.  Counters (``bytes_carried``...) stay."""
        self.deliver = None
        self._taps.clear()
        self._segment_taps.clear()
        if self._metrics_ref is not None:
            self._drop_metrics(self._metrics_ref)

    def _prune_gaps(self, now: float) -> None:
        """Drop the gaps that ended by ``now``, keeping ``_gap_total``
        their running sum (reset to exactly 0 once none are left)."""
        gaps = self._gaps
        while gaps and gaps[0][1] <= now:
            gap_start, gap_end = gaps.popleft()
            self._gap_total -= gap_end - gap_start
        if not gaps:
            self._gap_total = 0.0

    def _pending_tx_time(self, now: float) -> float:
        """Transmission work still ahead of the wire at ``now``.

        The busy horizon minus any idle deferral gaps inside it: a
        shaper or flap/jitter deferral pushes ``_busy_until`` out without
        the transmitter doing work over the gap, so the horizon alone
        overstates pending work.
        """
        pending = self._busy_until - now
        self._prune_gaps(now)
        if pending <= 0.0:
            return 0.0
        for gap_start, gap_end in self._gaps:
            overlap = min(gap_end, self._busy_until) - max(gap_start, now)
            if overlap > 0.0:
                pending -= overlap
        return max(0.0, pending)

    def _utilization_check(self, now: float) -> Tuple[bool, str]:
        """Is completed transmission within the elapsed ``now``?  Returns
        the verdict and, only when it fails, the violation detail.

        Decided in O(1) when possible: every live gap overlaps the
        pending horizon by at most its length, so ``busy - now -
        _gap_total`` bounds pending work from below and ``scheduled``
        minus it bounds completed work from above.  An upper bound
        within ``now`` (with ``_GAP_BOUND_EPS`` of rounding slack)
        proves the exact check passes; only an inconclusive bound pays
        for the exact rescan of the gaps.
        """
        self._prune_gaps(now)
        scheduled = self._busy_time_scheduled
        lower = self._busy_until - now - self._gap_total - _GAP_BOUND_EPS
        if (scheduled - lower if lower > 0.0 else scheduled) <= now:
            return True, ""
        completed = scheduled - self._pending_tx_time(now)
        if completed <= now + 1e-9:
            return True, ""
        return False, f"{self.name}: {completed:.3f}s busy in {now:.3f}s elapsed"

    def utilization_until_now(self) -> float:
        """Fraction of elapsed time the transmitter has been busy.

        Counts only transmission that has already happened: serialization
        scheduled beyond ``now`` (bytes still queued or on the wire) and
        idle shaper/impairment deferral gaps are excluded, so the value
        is a true busy-time integral and always lands in [0, 1].
        """
        now = self.loop.now
        if now <= 0:
            return 0.0
        completed = self._busy_time_scheduled - self._pending_tx_time(now)
        return min(1.0, max(0.0, completed / now))

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission."""
        now = self.loop.now
        for observer in self._taps:
            observer(packet, now)
        arrival = self._admit(packet.wire_bytes, now)
        self.loop.schedule_at(arrival, lambda p=packet: self._arrive(p))

    def _admit(self, wire_bytes: int, now: float) -> float:
        """Book ``wire_bytes`` onto the wire at ``now``; return arrival time.

        All state arithmetic, attribution, and telemetry of packet
        admission live here, shared verbatim between the per-packet
        exact path (:meth:`send`) and the :mod:`repro.netsim.fastpath`
        engine — which is what makes the two paths bit-identical.

        This is the hottest function in the simulator (called once per
        packet per link); it is written with branches instead of
        ``max()`` calls and gates every telemetry-only computation, but
        the floating-point operations and their order are unchanged.
        """
        busy = self._busy_until
        if busy > now:
            queue_wait = busy - now
            charged = self._queue_charged_until
            frontier = now if now > charged else charged
            queue_charge = busy - frontier if busy > frontier else 0.0
            if charged < busy:
                self._queue_charged_until = busy
            eligible = busy
        else:
            queue_wait = 0.0
            queue_charge = 0.0
            eligible = now
        start = eligible
        shaper = self.shaper
        if shaper is not None:
            shaped = shaper.earliest_start(wire_bytes, start)
            if shaped > start:
                start = shaped
            shaper.consume(wire_bytes, start)
        throttle_wait = start - eligible
        tx_time = wire_bytes * 8.0 / self.rate_bps
        telemetry = obs._active  # obs.active() sans the call, per packet
        enabled = telemetry.enabled
        causes_on = enabled and telemetry.causes_on
        impair_wait = 0.0
        flap_wait = jitter_wait = recovery_wait = 0.0
        impairment = self.impairment
        if impairment is not None:
            if causes_on:
                flap_before = impairment.flap_defer_s
                jitter_before = impairment.jitter_added_s
                recovery_before = impairment.recovery_added_s
            impaired_start, recovery = impairment.apply(start, tx_time)
            impair_wait = (impaired_start - start) + recovery
            if causes_on:
                flap_wait = impairment.flap_defer_s - flap_before
                jitter_wait = impairment.jitter_added_s - jitter_before
                recovery_wait = impairment.recovery_added_s - recovery_before
            start = impaired_start
            tx_time += recovery
        if start > eligible:
            # The wire sits idle over [eligible, start): remember the gap
            # so utilization does not count it as pending work, and move
            # the queue-charge frontier past it so the next packet's wait
            # across the gap stays charged to throttle/flap/jitter (it
            # was, above) rather than re-charged to link.queue.
            self._gaps.append((eligible, start))
            self._gap_total += start - eligible
            # Pruned here too, or the deque only grows with health off.
            # A health check at this ``now`` prunes the same gaps, after
            # the same append, so ``_gap_total`` sees the same float ops.
            if self._gaps[0][1] <= now:
                self._prune_gaps(now)
            if self._queue_charged_until < start:
                self._queue_charged_until = start
        busy = start + tx_time
        self._busy_until = busy
        self._busy_time_scheduled += tx_time
        self.bytes_carried += wire_bytes
        self.packets_carried += 1
        arrival = busy + self.delay_s
        if not enabled:
            return arrival
        if causes_on:
            causes = telemetry.causes
            recovered_share = min(queue_charge, self._recovery_backlog_s)
            if recovered_share > 0.0:
                self._recovery_backlog_s -= recovered_share
                causes.add("link.loss_recovery", recovered_share)
            if queue_charge > recovered_share:
                causes.add("link.queue", queue_charge - recovered_share)
            if throttle_wait > 0.0:
                causes.add("link.throttle", throttle_wait)
            if flap_wait > 0.0:
                causes.add("link.flap", flap_wait)
            if jitter_wait > 0.0:
                causes.add("link.jitter", jitter_wait)
            if recovery_wait > 0.0:
                causes.add("link.loss_recovery", recovery_wait)
                self._recovery_backlog_s += recovery_wait
        if telemetry.health_on and now > 0.0:
            ok, detail = self._utilization_check(now)
            telemetry.health.check("link.utilization_bounded", ok, detail)
        if telemetry.metrics_on:
            metrics = telemetry.metrics
            ref = self._metrics_ref
            if ref is None or ref() is not metrics:
                self._bind_metrics(metrics)
            self._packets_metric.inc()
            self._bytes_metric.inc(wire_bytes)
            self._queue_delay_metric.observe(queue_wait)
            if throttle_wait > 0.0:
                throttle = self._throttle_metric
                if throttle is None:
                    throttle = self._throttle_metric = metrics.counter(
                        "netsim_link_throttle_seconds_total",
                        "Token-bucket shaping delay", link=self.name,
                    )
                throttle.inc(throttle_wait)
            if impair_wait > 0.0:
                impair = self._impair_metric
                if impair is None:
                    impair = self._impair_metric = metrics.counter(
                        "netsim_link_impairment_seconds_total",
                        "Injected loss-recovery/jitter/flap delay",
                        link=self.name,
                    )
                impair.inc(impair_wait)
        return arrival

    def _bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Resolve the per-packet metric children once per registry.

        The throttle and impairment counters are only reset here: they
        are bound on their first positive delay, so a link that never
        shapes or impairs exports no zero-valued series for them."""
        self._metrics_ref = weakref.ref(metrics, self._drop_metrics)
        self._throttle_metric = None
        self._impair_metric = None
        self._packets_metric = metrics.counter(
            "netsim_link_packets_total", "Packets entering the link",
            link=self.name,
        )
        self._bytes_metric = metrics.counter(
            "netsim_link_bytes_total", "Wire bytes entering the link",
            link=self.name,
        )
        self._queue_delay_metric = metrics.histogram(
            "netsim_link_queue_delay_seconds",
            "Serialization-queue wait per packet", link=self.name,
        )

    def _drop_metrics(self, ref: "weakref.ref[MetricsRegistry]") -> None:
        """The bound registry died: release the children it owned."""
        self._metrics_ref = None
        del self._packets_metric, self._bytes_metric, self._queue_delay_metric
        self._throttle_metric = self._impair_metric = None

    def _arrive(self, packet: Packet) -> None:
        if self.deliver is None:
            raise RuntimeError(f"link {self.name!r} has no downstream sink")
        self.deliver(packet)

    @property
    def queue_delay_now(self) -> float:
        """Time a packet arriving now would wait before transmission."""
        return max(0.0, self._busy_until - self.loop.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.name!r}, {self.rate_bps / 1e6:.2f} Mbps, {self.delay_s * 1e3:.1f} ms)"


class TokenBucketShaper:
    """Token-bucket rate limiter, the model of ``tc ... tbf``.

    Tokens accrue at ``rate_bps``; a packet may start transmission once the
    bucket holds its full wire size.  The bucket depth bounds burst size.
    """

    def __init__(self, rate_bps: float, bucket_bytes: int) -> None:
        if rate_bps <= 0:
            raise ValueError("shaper rate must be positive")
        if bucket_bytes <= 0:
            raise ValueError("bucket must hold at least one byte")
        self.rate_bps = rate_bps
        self.bucket_bytes = bucket_bytes
        self._tokens = float(bucket_bytes)
        self._last_update = 0.0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_update)
        self._tokens = min(
            float(self.bucket_bytes), self._tokens + elapsed * self.rate_bps / 8.0
        )
        self._last_update = now

    def earliest_start(self, nbytes: int, now: float) -> float:
        """Earliest time a packet of ``nbytes`` may begin transmission."""
        self._refill(now)
        if self._tokens >= nbytes:
            return now
        deficit = nbytes - self._tokens
        return now + deficit * 8.0 / self.rate_bps

    def consume(self, nbytes: int, when: float) -> None:
        """Debit the bucket for a packet that starts at ``when``."""
        self._refill(when)
        self._tokens -= nbytes
