"""Unit tests for links and token-bucket shaping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.impair import FlapSchedule, LinkImpairment, LossSpec
from repro.netsim.events import EventLoop
from repro.netsim.link import Link, TokenBucketShaper
from repro.netsim.packet import HEADER_BYTES, Packet


def make_packet(nbytes=1000, flow=1, seq=0):
    return Packet(flow_id=flow, seq=seq, payload_bytes=nbytes)


def test_link_serialization_plus_propagation():
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.5)  # 1000 B/s
    arrivals = []
    link.deliver = lambda p: arrivals.append(loop.now)
    pkt = make_packet(nbytes=1000 - HEADER_BYTES)  # exactly 1000 wire bytes
    link.send(pkt)
    loop.run()
    # 1000 bytes at 1000 B/s = 1 s serialize + 0.5 s propagate.
    assert arrivals == [pytest.approx(1.5)]


def test_link_fifo_queueing_delay():
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.0)
    arrivals = []
    link.deliver = lambda p: arrivals.append((p.seq, loop.now))
    link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=0))
    link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=1))
    loop.run()
    assert arrivals[0] == (0, pytest.approx(1.0))
    assert arrivals[1] == (1, pytest.approx(2.0))


def test_link_requires_positive_rate():
    with pytest.raises(ValueError):
        Link(EventLoop(), rate_bps=0.0, delay_s=0.0)
    with pytest.raises(ValueError):
        Link(EventLoop(), rate_bps=1.0, delay_s=-1.0)


def test_link_tap_sees_ingress_time():
    loop = EventLoop()
    link = Link(loop, rate_bps=8e6, delay_s=0.1)
    link.deliver = lambda p: None
    seen = []
    link.tap(lambda p, t: seen.append((p.seq, t)))
    loop.schedule(1.0, lambda: link.send(make_packet(seq=7)))
    loop.run()
    assert seen == [(7, 1.0)]


def test_link_untap():
    loop = EventLoop()
    link = Link(loop, rate_bps=8e6, delay_s=0.0)
    link.deliver = lambda p: None
    seen = []
    obs = lambda p, t: seen.append(p.seq)
    link.tap(obs)
    link.send(make_packet(seq=1))
    link.untap(obs)
    link.send(make_packet(seq=2))
    loop.run()
    assert seen == [1]


def test_link_without_sink_raises():
    loop = EventLoop()
    link = Link(loop, rate_bps=8e6, delay_s=0.0)
    link.send(make_packet())
    with pytest.raises(RuntimeError):
        loop.run()


def test_link_counters():
    loop = EventLoop()
    link = Link(loop, rate_bps=8e6, delay_s=0.0)
    link.deliver = lambda p: None
    pkt = make_packet(nbytes=100)
    link.send(pkt)
    loop.run()
    assert link.packets_carried == 1
    assert link.bytes_carried == pkt.wire_bytes


def test_utilization_counts_only_completed_transmission():
    # Regression: utilization divided *all* bytes ever enqueued by
    # elapsed time, counting bytes still queued/being serialized, so a
    # deep backlog reported utilization > 1.0.
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.0)  # 1000 B/s
    link.deliver = lambda p: None
    # Two packets of 1 s serialization each, both enqueued at t=0.
    link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=0))
    link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=1))
    loop.run_until(1.0)
    # At t=1 only the first packet has finished serializing; the old
    # code reported 2000 B * 8 / 8000 / 1 s = 2.0 here.
    assert link.utilization_until_now() == pytest.approx(1.0)
    loop.run_until(4.0)
    # Busy 2 s out of 4 s elapsed.
    assert link.utilization_until_now() == pytest.approx(0.5)


def test_utilization_is_clamped_and_zero_at_start():
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.0)
    link.deliver = lambda p: None
    # Regression: at now == _busy_until == 0 the old truthiness guard
    # (`if busy`) took the wrong branch; enqueue at t=0 and ask
    # immediately — before any time has elapsed there is no utilization.
    link.send(make_packet(nbytes=1000 - HEADER_BYTES))
    assert link.utilization_until_now() == 0.0
    loop.run()
    assert 0.0 <= link.utilization_until_now() <= 1.0


def test_queue_delay_now_reflects_backlog():
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.0)
    link.deliver = lambda p: None
    link.send(make_packet(nbytes=1000 - HEADER_BYTES))
    assert link.queue_delay_now == pytest.approx(1.0)


class TestTokenBucketShaper:
    def test_burst_passes_then_paces(self):
        loop = EventLoop()
        shaper = TokenBucketShaper(rate_bps=8_000.0, bucket_bytes=1000)
        link = Link(loop, rate_bps=8e9, delay_s=0.0, shaper=shaper)
        arrivals = []
        link.deliver = lambda p: arrivals.append(loop.now)
        # First 1000-wire-byte packet passes immediately (bucket full);
        # second must wait for tokens at 1000 B/s.
        link.send(make_packet(nbytes=1000 - HEADER_BYTES))
        link.send(make_packet(nbytes=1000 - HEADER_BYTES))
        loop.run()
        assert arrivals[0] == pytest.approx(0.0, abs=1e-5)
        assert arrivals[1] == pytest.approx(1.0, rel=1e-3)

    def test_long_run_rate_limited(self):
        loop = EventLoop()
        rate = 1_000_000.0  # 1 Mbps
        shaper = TokenBucketShaper(rate_bps=rate, bucket_bytes=10_000)
        link = Link(loop, rate_bps=1e9, delay_s=0.0, shaper=shaper)
        arrivals = []
        link.deliver = lambda p: arrivals.append(loop.now)
        total_wire = 0
        for i in range(200):
            pkt = make_packet(nbytes=1200, seq=i)
            total_wire += pkt.wire_bytes
            link.send(pkt)
        loop.run()
        elapsed = arrivals[-1]
        effective_bps = total_wire * 8.0 / elapsed
        # Within 15% of the shaped rate (bucket burst inflates it slightly).
        assert effective_bps == pytest.approx(rate, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucketShaper(rate_bps=0, bucket_bytes=100)
        with pytest.raises(ValueError):
            TokenBucketShaper(rate_bps=100, bucket_bytes=0)


class TestDeferralGapAccounting:
    """Regression: a shaper/impairment-deferred start used to inflate
    ``_busy_until`` silently, so (a) the *next* packet's wait across the
    idle gap was charged to ``link.queue`` instead of ``link.throttle``
    in the causes ledger, and (b) ``utilization_until_now`` counted the
    idle gap as pending transmission work, undercounting completed busy
    time."""

    def make_throttled_link(self, loop):
        # Wire 1000 B/s; shaper 100 B/s with a 100-byte bucket, so each
        # 100-wire-byte packet after the first waits ~0.9 s on tokens.
        return Link(
            loop, rate_bps=8_000.0, delay_s=0.0,
            shaper=TokenBucketShaper(rate_bps=800.0, bucket_bytes=100),
        )

    def send_three(self, loop, link):
        for seq in range(3):
            link.send(make_packet(nbytes=100 - HEADER_BYTES, seq=seq))

    def test_gap_not_charged_to_queue(self):
        from repro import obs

        obs.deactivate()
        obs.ensure_active(causes=True)
        try:
            loop = EventLoop()
            link = self.make_throttled_link(loop)
            link.deliver = lambda p: None
            self.send_three(loop, link)
            totals = obs.active().causes.totals()
        finally:
            obs.deactivate()
        # p1: starts at 0 (full bucket), tx 0.1 s.  p2: queue-waits until
        # 0.1, then throttles until 1.0, tx to 1.1.  p3: queue-waits
        # until 1.1, throttles until 2.0.  Queue seconds are the two
        # serialization tails (0.1 each); the 2 x 0.9 s token waits are
        # throttle.  The old code charged p3's wait across p2's idle
        # throttle gap (0.9 s) to link.queue as well.
        assert totals["link.throttle"] == pytest.approx(1.8)
        assert totals["link.queue"] == pytest.approx(0.2)

    def test_utilization_excludes_idle_gap(self):
        loop = EventLoop()
        link = self.make_throttled_link(loop)
        link.deliver = lambda p: None
        self.send_three(loop, link)
        # Horizon: tx [0, 0.1], idle gap (0.1, 1.0), tx [1.0, 1.1], idle
        # gap (1.1, 2.0), tx [2.0, 2.1].
        loop.run_until(1.1)
        # Completed transmission by 1.1 s: 0.2 s of actual wire time.
        # The old code computed pending = busy_until - now = 1.0 s
        # (including the 0.9 s idle gap), clamping utilization to 0.
        assert link.utilization_until_now() == pytest.approx(0.2 / 1.1)
        loop.run_until(2.1)
        assert link.utilization_until_now() == pytest.approx(0.3 / 2.1)

    def test_unshaped_link_accounting_unchanged(self):
        loop = EventLoop()
        link = Link(loop, rate_bps=8_000.0, delay_s=0.0)
        link.deliver = lambda p: None
        link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=0))
        link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=1))
        # Back-to-back transmissions keep the wire busy 0-2 s.
        loop.run_until(1.5)
        assert link.utilization_until_now() == pytest.approx(1.0)
        loop.run_until(4.0)
        assert link.utilization_until_now() == pytest.approx(2.0 / 4.0)
        assert not link._gaps


def test_gaps_stay_bounded_with_health_off():
    """Regression: only the health check pruned expired deferral gaps,
    so with health off a shaped link kept every gap of the run (11,141
    on one 2 Mbps session).  Expired gaps are now pruned as new ones are
    added, with the same running total and the same utilization."""
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.0,
                shaper=TokenBucketShaper(rate_bps=800.0, bucket_bytes=100))
    link.deliver = lambda p: None
    for burst in range(200):
        # Two 100-wire-byte packets per 2 s: the second waits 0.9 s on
        # tokens, leaving an idle gap that has expired by the next burst.
        loop.run_until(2.0 * burst)
        link.send(make_packet(nbytes=100 - HEADER_BYTES, seq=2 * burst))
        link.send(make_packet(nbytes=100 - HEADER_BYTES, seq=2 * burst + 1))
        assert len(link._gaps) <= 1
    assert link._gap_total == pytest.approx(
        sum(end - start for start, end in link._gaps), abs=GAP_TOTAL_TOL)
    loop.run_until(2.0 * 199 + 0.5)
    # 399 packets done (0.1 s each), the last one still 0.5 s from done.
    assert link.utilization_until_now() == pytest.approx(
        399 * 0.1 / loop.now)


# ---------------------------------------- O(1) utilization health check

#: The running gap total is a float sum of appends and prunes; it must
#: track the live gaps' exact sum to well inside the check's own 1e-9 s
#: tolerance.
GAP_TOTAL_TOL = 1e-9


def reference_utilization(busy_until, scheduled, gaps, now):
    """``utilization_until_now`` as the full gap rescan computes it."""
    if now <= 0:
        return 0.0
    pending = busy_until - now
    if pending <= 0.0:
        pending = 0.0
    else:
        for gap_start, gap_end in gaps:
            overlap = min(gap_end, busy_until) - max(gap_start, now)
            if overlap > 0.0:
                pending -= overlap
        pending = max(0.0, pending)
    return min(1.0, max(0.0, (scheduled - pending) / now))


def exact_verdict(link, now):
    completed = link._busy_time_scheduled - link._pending_tx_time(now)
    return completed <= now + 1e-9


def impaired_link(loop, seed):
    return Link(
        loop, rate_bps=1e6, delay_s=0.01, name="prop",
        shaper=TokenBucketShaper(rate_bps=4e5, bucket_bytes=3000),
        impairment=LinkImpairment(
            random.Random(seed), loss=LossSpec(rate=0.1), jitter_s=0.004,
            flaps=FlapSchedule([(0.2, 0.35), (0.8, 1.1)]),
        ),
    )


#: Offsets of ``_busy_time_scheduled`` from "completed == now" for the
#: probed verdicts: around the tolerance, where the O(1) bound is
#: inconclusive and the exact rescan decides.
PROBE_OFFSETS = (-1e-3, -1e-9, 0.0, 5e-10, 1e-9, 2e-9, 1e-3)

admit_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.04),  # wait before the admit
        st.integers(min_value=40, max_value=1500),  # wire bytes
        st.booleans(),  # probe the verdict near its boundary
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(steps=admit_steps, seed=st.integers(min_value=0, max_value=2**16))
def test_constant_time_check_matches_exact_rescan(steps, seed):
    from repro import obs

    loop = EventLoop()
    checked = impaired_link(loop, seed)  # admitted with health on
    plain = impaired_link(loop, seed)    # admitted with telemetry off
    checked.deliver = plain.deliver = lambda p: None
    fallbacks = []
    rescan = checked._pending_tx_time

    def counting_rescan(now):
        fallbacks.append(now)
        return rescan(now)

    expected_checks = 0
    obs.deactivate()
    with obs.session(metrics=False, tracing=False, profiling=False,
                     health=True) as telemetry:
        health = telemetry.health
        for seq, (wait, wire_bytes, probe) in enumerate(steps):
            loop.run_until(loop.now + wait)
            now = loop.now
            packet = make_packet(nbytes=wire_bytes - HEADER_BYTES, seq=seq)
            checked.send(packet)
            expected_checks += now > 0.0
            obs.deactivate()
            plain.send(packet)
            obs.activate(telemetry)
            gaps = checked._gaps
            assert abs(checked._gap_total - sum(
                end - start for start, end in gaps)) <= GAP_TOTAL_TOL
            if not gaps:
                assert checked._gap_total == 0.0
            if probe and now > 0.0:
                scheduled = checked._busy_time_scheduled
                completed_at_now = now + checked._pending_tx_time(now)
                checked._pending_tx_time = counting_rescan
                for offset in PROBE_OFFSETS:
                    checked._busy_time_scheduled = completed_at_now + offset
                    ok, detail = checked._utilization_check(now)
                    assert ok == exact_verdict(checked, now)
                    assert (detail == "") == ok
                del checked._pending_tx_time
                checked._busy_time_scheduled = scheduled
            # The real, unprobed state always passes.
            assert checked._utilization_check(now) == (True, "")
            expected = reference_utilization(
                checked._busy_until, checked._busy_time_scheduled,
                list(checked._gaps), now)
            assert checked.utilization_until_now() == expected
            assert plain.utilization_until_now() == expected
        # Every admission was checked, and the real state never failed.
        assert health.checks_total == expected_checks
        assert health.ok(), health.samples
    if any(probe and wait for wait, _, probe in steps):
        assert fallbacks  # the inconclusive branch was exercised
    # Once the horizon has passed, the deque clears and the total is 0.
    loop.run()
    checked._prune_gaps(loop.now)
    assert not checked._gaps and checked._gap_total == 0.0


class TestUtilizationFallback:
    """A gap straddling ``now`` makes the O(1) bound loose; near the
    boundary it must defer to the exact rescan."""

    def make_link(self, loop):
        # Same horizon as TestDeferralGapAccounting: tx [0, 0.1], gap
        # (0.1, 1.0), tx [1.0, 1.1], gap (1.1, 2.0), tx [2.0, 2.1].
        link = Link(loop, rate_bps=8_000.0, delay_s=0.0, name="fb",
                    shaper=TokenBucketShaper(rate_bps=800.0, bucket_bytes=100))
        link.deliver = lambda p: None
        for seq in range(3):
            link.send(make_packet(nbytes=100 - HEADER_BYTES, seq=seq))
        loop.run_until(0.5)
        return link

    def rescans(self, link):
        calls = []
        rescan = link._pending_tx_time
        link._pending_tx_time = lambda now: calls.append(now) or rescan(now)
        return calls

    def test_loose_bound_defers_to_exact_pass(self):
        loop = EventLoop()
        link = self.make_link(loop)
        assert link._gap_total == pytest.approx(1.8)
        calls = self.rescans(link)
        assert link._utilization_check(0.5) == (True, "")
        assert calls == []  # 0.3 s scheduled: the bound decides
        # Pending at 0.5 s is 0.2 s, so 0.7 s scheduled means exactly
        # 0.5 s completed: the bound (which ignores that half of the
        # straddling gap has elapsed) is inconclusive, the rescan passes.
        link._busy_time_scheduled = 0.7
        assert link._utilization_check(0.5) == (True, "")
        assert calls == [0.5]

    def test_loose_bound_defers_to_exact_failure(self):
        loop = EventLoop()
        link = self.make_link(loop)
        calls = self.rescans(link)
        link._busy_time_scheduled = 0.8
        assert link._utilization_check(0.5) == (
            False, "fb: 0.600s busy in 0.500s elapsed")
        assert calls == [0.5]


# ------------------------------------------------- cached metric handles


def test_link_metric_handles_rebind_per_registry():
    from repro import obs

    loop = EventLoop()
    link = Link(loop, rate_bps=8e6, delay_s=0.0, name="shared")
    idle = Link(loop, rate_bps=8e6, delay_s=0.0, name="idle")
    link.deliver = idle.deliver = lambda p: None
    registries = []
    for packets in (3, 2):
        with obs.session(tracing=False, profiling=False) as telemetry:
            for seq in range(packets):
                link.send(make_packet(nbytes=500, seq=seq))
            loop.run()
            registries.append(telemetry.metrics)
    for registry, packets in zip(registries, (3, 2)):
        assert registry.get(
            "netsim_link_packets_total", link="shared").value == packets
        assert registry.get(
            "netsim_link_bytes_total", link="shared").value == packets * (
                500 + HEADER_BYTES)
        assert registry.get(
            "netsim_link_queue_delay_seconds", link="shared").count == packets
        # The link that carried nothing created no child anywhere.
        for name in ("netsim_link_packets_total", "netsim_link_bytes_total",
                     "netsim_link_queue_delay_seconds"):
            assert registry.get(name, link="idle") is None
    assert registries[0] is not registries[1]
    # Once its registry is gone the link holds none of the children.
    del registries, registry, telemetry
    assert link._metrics_ref is None
    assert not hasattr(link, "_queue_delay_metric")


def test_conditional_link_counters_bind_on_first_delay():
    """The throttle/impairment counters are cached per registry, created
    on the first positive delay only, and released with the registry."""
    from repro import obs
    from repro.obs.metrics import MetricFamily

    loop = EventLoop()
    shaped = Link(loop, rate_bps=8e6, delay_s=0.0, name="shaped",
                  shaper=TokenBucketShaper(rate_bps=1e6, bucket_bytes=1500))
    plain = Link(loop, rate_bps=8e6, delay_s=0.0, name="plain")
    shaped.deliver = plain.deliver = lambda p: None
    child_calls = []
    original = MetricFamily.child
    MetricFamily.child = lambda self, labels: (
        child_calls.append(self.name), original(self, labels))[1]
    try:
        registries = []
        for packets in (6, 4):
            with obs.session(tracing=False, profiling=False) as telemetry:
                for seq in range(packets):
                    shaped.send(make_packet(nbytes=1000, seq=seq))
                    plain.send(make_packet(nbytes=1000, seq=seq))
                loop.run()
                registries.append(telemetry.metrics)
    finally:
        MetricFamily.child = original
    # One lookup per registry, however many packets were throttled.
    assert child_calls.count("netsim_link_throttle_seconds_total") == 2
    for registry in registries:
        throttled = registry.get("netsim_link_throttle_seconds_total",
                                 link="shaped")
        assert throttled is not None and throttled.value > 0.0
        # No zero-valued series for a link that was never delayed.
        assert registry.get("netsim_link_throttle_seconds_total",
                            link="plain") is None
        assert registry.get("netsim_link_impairment_seconds_total",
                            link="shaped") is None
    del registries, registry, throttled, telemetry
    assert shaped._metrics_ref is None
    assert shaped._throttle_metric is None
