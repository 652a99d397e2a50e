"""A finished viewing session is freed by reference counting.

``ViewingSession.run`` closes the session graph when it is done: the
event loop and its fast path, connections, streams, hosts, links, HTTP
clients and the media driver.  With the cyclic collector off, running a
session and dropping its artifacts must leave nothing for the collector
to find, and the artifacts must still be complete until then.
"""

import gc
import random

import pytest

from repro.automation.devices import GALAXY_S4
from repro.core.session import SessionSetup, ViewingSession
from repro.faults.plan import FaultPlan
from repro.netsim import fastpath
from repro.service.broadcast import sample_broadcast
from repro.service.geo import POPULATION_CENTERS, GeoPoint
from repro.service.selection import DeliveryProtocol

RTMP = DeliveryProtocol.RTMP
HLS = DeliveryProtocol.HLS

#: Every fault class, so retries, reconnects and impaired links run too.
FAULTS = "loss=0.05,jitter=0.01,flap=0.05:1:3,ingest=0.05:2:5,api5xx=0.3"


def make_setup(protocol, limit, faults=None, seed=5):
    broadcast = sample_broadcast(random.Random(seed), 0.0, GeoPoint(41.0, 28.9),
                                 POPULATION_CENTERS[17])
    broadcast.mean_viewers = 12.0
    broadcast.duration_s = 7200.0
    return SessionSetup(
        broadcast=broadcast,
        age_at_join=600.0,
        protocol=protocol,
        device=GALAXY_S4,
        bandwidth_limit_mbps=limit,
        watch_seconds=20.0,
        seed=seed,
        faults=FaultPlan.parse(faults) if faults else None,
    )


def cyclic_garbage(setup, exact):
    """Objects the cyclic collector finds after one session whose
    artifacts were read and dropped, with the collector off meanwhile."""
    previous = fastpath.enabled()
    fastpath.set_enabled(not exact)
    gc.collect()
    gc.disable()
    try:
        session = ViewingSession(setup)
        artifacts = session.run()
        # The artifacts outlive the teardown.
        assert artifacts.qoe.consistent()
        assert len(artifacts.capture) == len(artifacts.capture.records) > 0
        assert artifacts.total_down_bytes == artifacts.capture.total_bytes(
            direction="down") > 0
        assert session.loop.events_processed > 0
        assert session.loop.pending() == 0
        del session, artifacts
        return gc.collect()
    finally:
        gc.enable()
        fastpath.set_enabled(previous)


@pytest.mark.parametrize("protocol,limit,exact,faults", [
    (RTMP, 2.0, False, None),
    (HLS, 2.0, False, None),
    (RTMP, 100.0, True, None),
    (HLS, 0.5, True, None),
    (RTMP, 0.5, False, FAULTS),
    (HLS, 2.0, False, FAULTS),
])
def test_session_leaves_no_cyclic_garbage(protocol, limit, exact, faults):
    assert cyclic_garbage(make_setup(protocol, limit, faults), exact) == 0


def test_teardown_runs_when_the_session_fails():
    setup = make_setup(RTMP, 2.0)
    session = ViewingSession(setup)

    def broken(*args, **kwargs):
        raise RuntimeError("player failed")

    session._build_qoe = broken
    with pytest.raises(RuntimeError, match="player failed"):
        session.run()
    assert session.loop.pending() == 0
    assert session.loop._fast is None
    assert session._driver._arrivals is None
