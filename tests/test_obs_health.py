"""Study-health invariant monitors: unit behaviour, the zero-violation
guarantee on real (even faulted) runs, and export surfacing."""

import random

from repro import obs
from repro.automation.devices import GALAXY_S4
from repro.core.qoe import SessionQoE
from repro.core.session import SessionSetup, ViewingSession
from repro.experiments.common import Workbench
from repro.faults.impair import LossSpec
from repro.faults.plan import FaultPlan
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.packet import HEADER_BYTES, Packet
from repro.obs.health import HealthMonitor
from repro.obs.export import render_health, render_prometheus
from repro.player.buffer import PlayoutBuffer, StallEvent
from repro.service.broadcast import sample_broadcast
from repro.service.geo import POPULATION_CENTERS, GeoPoint
from repro.service.selection import DeliveryProtocol


# ----------------------------------------------------------------- unit


def test_monitor_counts_checks_and_violations():
    monitor = HealthMonitor()
    assert monitor.ok()
    assert monitor.check("inv.a", True)
    assert not monitor.check("inv.a", False, "level=-0.2")
    assert not monitor.check("inv.b", False)
    assert monitor.checks_total == 3
    assert monitor.violations == {"inv.a": 1, "inv.b": 1}
    assert monitor.violation_count == 2
    assert not monitor.ok()
    assert monitor.samples == ["inv.a: level=-0.2", "inv.b"]


def test_monitor_caps_samples_but_not_counts():
    monitor = HealthMonitor()
    for index in range(HealthMonitor.MAX_SAMPLES + 10):
        monitor.check("inv.spam", False, f"case {index}")
    assert len(monitor.samples) == HealthMonitor.MAX_SAMPLES
    assert monitor.violations["inv.spam"] == HealthMonitor.MAX_SAMPLES + 10


def test_monitor_merge_adds_counts_and_caps_samples():
    left = HealthMonitor()
    left.check("inv.a", False, "one")
    right = HealthMonitor()
    right.check("inv.a", False, "two")
    right.check("inv.b", True)
    left.merge_from(right.snapshot())
    assert left.checks_total == 3
    assert left.violations == {"inv.a": 2}
    assert left.samples == ["inv.a: one", "inv.a: two"]


# ------------------------------------------------------------ simulation


def test_faulted_run_holds_all_invariants():
    """The monitors promote test_properties invariants to runtime; a
    faulted study must evaluate many checks and violate none."""
    obs.deactivate()
    try:
        workbench = Workbench(
            seed=91, unlimited_sessions=2, sweep_sessions_per_limit=1,
            sweep_limits_mbps=(2.0,), health=True,
            faults=FaultPlan(loss=LossSpec(rate=0.02)),
        )
        workbench.study.run_batch(2, bandwidth_limit_mbps=2.0)
        health = obs.active().health
        assert health.checks_total > 0
        assert health.ok(), health.samples
        report = render_health(obs.active())
        assert "violations: 0" in report
        assert "all invariants held." in report
    finally:
        obs.deactivate()


# ------------------------------------------------- failing-check details
#
# The check sites format their detail string only when the check fails;
# a failure must still record the very sample it always did.


def _health_only():
    return obs.session(metrics=False, tracing=False, profiling=False,
                       health=True)


def test_failing_link_check_keeps_its_sample():
    with _health_only() as telemetry:
        loop = EventLoop()
        link = Link(loop, rate_bps=8_000.0, delay_s=0.0, name="lnk")
        link.deliver = lambda packet: None
        link._busy_time_scheduled = 5.0  # corrupt: more work than time
        loop.schedule(1.0, lambda: link.send(
            Packet(flow_id=1, seq=0, payload_bytes=1000 - HEADER_BYTES)))
        loop.run()
        assert telemetry.health.snapshot() == {
            "checks_total": 1,
            "violations": {"link.utilization_bounded": 1},
            "samples": [
                "link.utilization_bounded: lnk: 5.000s busy in 1.000s elapsed",
            ],
        }


def test_failing_buffer_checks_keep_their_samples():
    with _health_only() as telemetry:
        loop = EventLoop()
        buffer = PlayoutBuffer(loop, start_threshold_s=2.0,
                               rebuffer_threshold_s=1.0, broadcast_start=0.0)
        buffer.set_play_origin(0.0)
        loop.schedule(0.5, lambda: buffer.on_media(3.0))
        loop.run_until(1.0)
        buffer._playhead = lambda now: 9.25  # playhead past the frontier
        loop.schedule(0.5, lambda: buffer.on_media(4.0))
        loop.run_until(2.0)
        buffer._stalls.append(StallEvent(start=1.75, duration=99.0))
        buffer.finalize(10.0)
        assert telemetry.health.snapshot() == {
            "checks_total": 3,
            "violations": {
                "player.buffer_nonnegative": 1,
                "player.stall_within_watch": 1,
                "player.accounting_consistent": 1,
            },
            "samples": [
                "player.buffer_nonnegative: frontier-playhead gap "
                "-5.250000s at t=1.500",
                "player.stall_within_watch: stall 99.000s over watch 10.000s",
                "player.accounting_consistent: join 0.500 + playback 9.500 "
                "+ stall 99.000 != watch 10.000",
            ],
        }


def test_failing_session_check_keeps_its_sample(monkeypatch):
    monkeypatch.setattr(SessionQoE, "consistent", lambda self: False)
    broadcast = sample_broadcast(random.Random(5), 0.0, GeoPoint(41.0, 28.9),
                                 POPULATION_CENTERS[17])
    broadcast.mean_viewers = 12.0
    broadcast.duration_s = 7200.0
    setup = SessionSetup(
        broadcast=broadcast, age_at_join=600.0,
        protocol=DeliveryProtocol.RTMP, device=GALAXY_S4,
        bandwidth_limit_mbps=100.0, watch_seconds=5.0, chat_ui_on=False,
        cache_avatars=False, seed=5,
    )
    with _health_only() as telemetry:
        ViewingSession(setup).run()
        health = telemetry.health
        assert health.violations == {"qoe.consistent": 1}
        assert health.samples == [
            "qoe.consistent: 7Hb1DX8pPd5kh: join 1.635 + playback 3.365 "
            "+ stall 0.000 != watch 5.000",
        ]
        assert health.checks_total == 2457


# --------------------------------------------------------------- exports


def test_violations_surface_in_prometheus_and_report():
    with obs.session(metrics=False, tracing=False, profiling=False,
                     health=True) as telemetry:
        telemetry.health.check("link.utilization_bounded", True)
        telemetry.health.check("player.buffer_nonnegative", False,
                               "gap=-0.3 at t=12.0")
        dump = render_prometheus(telemetry)
        assert "health_checks_total 2" in dump
        assert ('health_violations_total{invariant='
                '"player.buffer_nonnegative"} 1') in dump
        report = render_health(telemetry)
        assert "player.buffer_nonnegative" in report
        assert "gap=-0.3 at t=12.0" in report


def test_healthy_monitor_with_no_checks_stays_silent():
    with obs.session(metrics=True, tracing=False, profiling=False) as telemetry:
        telemetry.metrics.counter("x_total", "help").inc()
        assert "health_checks_total" not in render_prometheus(telemetry)
