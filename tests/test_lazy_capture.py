"""The fast path's lazy capture builds the records an eager tap would.

On the segment fast path a :class:`TraceCapture` logs raw segments and
builds :class:`PacketRecord` entries on first read.  These tests pin
that deferral to the eager semantics: identical records in identical
order (live ``_message`` objects and payload bytes included), however
reads interleave with traffic, across pause/resume, and for the
log-only queries (``len`` and ``total_bytes``).
"""

import hashlib
import itertools

import pytest

from repro.automation.devices import GALAXY_S4
from repro.core.session import SessionSetup, ViewingSession
from repro.faults import FaultPlan
from repro.netsim import fastpath
from repro.netsim.connection import Connection, Message
from repro.netsim.events import EventLoop
from repro.netsim.packet import PacketRecord
from repro.netsim.topology import Network
from repro.netsim.trace import TraceCapture
from repro.service.selection import DeliveryProtocol
from repro.util.units import MBPS

from test_core_session import make_broadcast
from test_replay import _canonical_trace


def _network(rate_mbps=8.0):
    loop = EventLoop()
    net = Network(loop)
    a, b = net.host("a"), net.host("b")
    net.duplex(a, b, rate_bps=rate_mbps * MBPS, delay_s=0.01)
    return loop, net


def _tap_both(net, capture):
    capture.tap_link(net.link_between(net.host("a"), net.host("b")), "down")
    capture.tap_link(net.link_between(net.host("b"), net.host("a")), "up")


def _eager_reference(net, keep_payload=True):
    """Records built eagerly, at tap time, from plain-tap Packet views."""
    records = []
    for name, direction in (("down", "down"), ("up", "up")):
        src, dst = ("a", "b") if name == "down" else ("b", "a")
        link = net.link_between(net.host(src), net.host(dst))
        link.tap(lambda p, t, d=direction: records.append(
            PacketRecord.of(p, t, d, keep_payload)))
    return records


def _send_burst(conn, start, count, with_data=True):
    for i in range(start, start + count):
        nbytes = 700 + 1300 * (i % 4)
        data = bytes((i + k) % 251 for k in range(nbytes)) if with_data else None
        conn.send(Message(payload=i, nbytes=nbytes, data=data,
                          annotations={"protocol": "test", "index": i,
                                       "zz": "last", "a": None}))


def _connection(loop, net):
    fwd, rev = net.duplex_paths("a", "b")
    return Connection(loop, fwd, rev, on_message=lambda m, t: None)


class TestRecordsEqualEager:
    def test_read_mid_run_then_more_traffic(self):
        loop, net = _network()
        capture = TraceCapture(capture_payload=True)
        _tap_both(net, capture)
        reference = _eager_reference(net)
        conn = _connection(loop, net)
        _send_burst(conn, 0, 6)
        # Stop mid-transfer, with messages partly on the wire.
        loop.run_until(0.02)
        first = list(capture.records)
        assert first and first == reference
        _send_burst(conn, 6, 5)
        loop.run()
        assert capture.records == reference
        assert capture.records[:len(first)] == first
        finals = [r for r in capture.records if r.annotation("_message")]
        assert [r.annotation("_message").payload for r in finals] == list(range(11))

    def test_many_reads_interleaved(self):
        loop, net = _network(rate_mbps=2.0)
        capture = TraceCapture()
        _tap_both(net, capture)
        reference = _eager_reference(net)
        conn = _connection(loop, net)
        _send_burst(conn, 0, 8)
        for deadline in (0.005, 0.01, 0.013, 0.05, 0.2):
            loop.run_until(deadline)
            assert capture.records == reference
        loop.run()
        assert capture.records == reference

    def test_mixed_fast_and_exact_connections(self):
        loop, net = _network()
        capture = TraceCapture()
        _tap_both(net, capture)
        reference = _eager_reference(net)
        fast = _connection(loop, net)
        with fastpath.exact_network():
            exact = _connection(loop, net)
        assert fast._lane is not None and exact._lane is None
        _send_burst(fast, 0, 3)
        _send_burst(exact, 3, 3)
        loop.run_until(0.015)
        assert len(capture) == len(reference)
        _send_burst(exact, 6, 2)
        _send_burst(fast, 8, 2)
        loop.run()
        assert capture.records == reference

    def test_capture_without_payload(self):
        loop, net = _network()
        capture = TraceCapture(capture_payload=False)
        _tap_both(net, capture)
        reference = _eager_reference(net, keep_payload=False)
        _send_burst(_connection(loop, net), 0, 4)
        loop.run()
        assert capture.records == reference
        assert all(r.chunk is None for r in capture.records)

    def test_message_mutated_after_send(self):
        """Records show the message as it was sent, on both paths."""
        traces = []
        for exact in (False, True):
            loop, net = _network()
            capture = TraceCapture()
            _tap_both(net, capture)
            if exact:
                with fastpath.exact_network():
                    conn = _connection(loop, net)
            else:
                conn = _connection(loop, net)
            message = Message(payload="m", nbytes=4000,
                              annotations={"kind": "before"})
            conn.send(message)
            message.annotations["kind"] = "after"
            message.annotations["extra"] = 1
            loop.run()
            data = capture.data_records()
            assert [r.annotation("kind") for r in data] == ["before"] * 3
            assert all(r.annotation("extra") is None for r in data)
            traces.append(_canonical_trace(capture))
        assert traces[0] == traces[1]


class TestPauseResume:
    @staticmethod
    def _capture(exact, paused=True):
        loop, net = _network(rate_mbps=4.0)
        capture = TraceCapture()
        _tap_both(net, capture)
        if exact:
            with fastpath.exact_network():
                conn = _connection(loop, net)
        else:
            conn = _connection(loop, net)
        _send_burst(conn, 0, 10, with_data=False)
        # A second burst enters the link while the capture is paused.
        loop.schedule_at(0.02, lambda: _send_burst(conn, 10, 4, with_data=False))
        if paused:
            for at, action in ((0.015, capture.pause), (0.03, capture.resume),
                               (0.045, capture.pause), (0.05, capture.resume)):
                loop.schedule_at(at, action)
        loop.run()
        return capture

    def test_fast_drops_what_exact_drops(self):
        fast = self._capture(exact=False)
        exact = self._capture(exact=True)
        fast_len = len(fast)  # from the log, before any read
        assert _canonical_trace(fast) == _canonical_trace(exact)
        assert fast_len == len(exact) == len(fast.records)
        # The pauses really dropped both data and ACK packets.
        everything = self._capture(exact=False, paused=False).records
        kept = {(r.seq, r.is_ack) for r in fast.records}
        dropped = [r for r in everything if (r.seq, r.is_ack) not in kept]
        assert {r.is_ack for r in dropped} == {False, True}
        assert len(dropped) == len(everything) - fast_len


class TestLogOnlyQueries:
    @pytest.mark.parametrize("exact", [False, True], ids=["fast", "exact"])
    def test_len_and_total_bytes_before_any_read(self, exact):
        loop, net = _network()
        capture = TraceCapture()
        _tap_both(net, capture)
        if exact:
            with fastpath.exact_network():
                conn = _connection(loop, net)
        else:
            conn = _connection(loop, net)
        _send_burst(conn, 0, 7)
        loop.run_until(0.03)
        combos = list(itertools.product((None, "down", "up", "sideways"),
                                        (True, False)))
        # Half-built: read once mid-run, then log more unread traffic.
        partial = {c: capture.total_bytes(*c) for c in combos}
        assert len(capture) == len(capture.records)
        _send_burst(conn, 7, 3)
        loop.run()
        length = len(capture)
        totals = {c: capture.total_bytes(*c) for c in combos}
        records = capture.records
        assert length == len(records)
        for direction, include_acks in combos:
            expected = sum(
                r.wire_bytes for r in records
                if (direction is None or r.direction == direction)
                and (include_acks or not r.is_ack)
            )
            assert totals[(direction, include_acks)] == expected
            assert partial[(direction, include_acks)] <= expected
        assert totals[("sideways", True)] == 0
        assert totals[("up", False)] == 0 < totals[("up", True)]


class TestByteFidelitySession:
    def test_payload_reassembles_the_same_bytes(self):
        from repro.protocols import rtmp
        from repro.service.delivery import LiveSourceDriver, RtmpDelivery
        from test_byte_fidelity import make_broadcast as fidelity_broadcast

        streams = []
        for exact in (False, True):
            loop = EventLoop()
            net = Network(loop)
            server, phone = net.host("ingest"), net.host("phone")
            net.duplex(server, phone, rate_bps=20 * MBPS, delay_s=0.02)
            capture = TraceCapture(capture_payload=True)
            capture.tap_link(net.link_between(server, phone), "down")
            fwd, rev = net.duplex_paths("ingest", "phone")
            sent = []
            if exact:
                with fastpath.exact_network():
                    conn = Connection(loop, fwd, rev,
                                      on_message=lambda m, t: sent.append(m))
            else:
                conn = Connection(loop, fwd, rev,
                                  on_message=lambda m, t: sent.append(m))
            driver = LiveSourceDriver(loop, fidelity_broadcast(), age_at_join=5.0,
                                      horizon_s=6.0, generate_from=2.0)
            delivery = RtmpDelivery(rtmp.RtmpPushSession(conn, byte_fidelity=True),
                                    driver)
            driver.start()
            delivery.start()
            loop.run_until(6.0)
            records = sorted(capture.data_records(), key=lambda r: r.seq)
            stream = b"".join(r.chunk for r in records)
            delivered = b"".join(m.data for m in sent)
            assert delivered and stream.startswith(delivered)
            streams.append(stream)
        assert streams[0] == streams[1]


# Recorded with the eager capture (every record built at tap time),
# before records were deferred to the first read.
GOLDEN_SESSION_TRACES = [
    (0.5, "HLS", None, 1440,
     "5f2176cce517c7e40b259b71e596598ef2225d0ba5aeb8c133651b8908f8e9b3"),
    (2.0, "RTMP", None, 4202,
     "cf87c98e935d8f065a9c58d6fe353ebe25544acad27ef09c32fc39d560719af9"),
    (2.0, "HLS", "loss=0.02,jitter=0.005", 2898,
     "1d51b2594c4871fe4c450128cc01773907afaaa30fa1ccf1b0df9675f4e1b326"),
    (100.0, "RTMP", None, 4202,
     "0be0c1cadfd0518ffa2785ea953ac2f8ca99cdf1839622736286825101217ecc"),
    (100.0, "HLS", None, 2926,
     "d8f5f114f58dd6e30dc06b00a9ec9df2853a1b4b66b23976a23f8dd48e5407b5"),
]


@pytest.mark.parametrize("limit,protocol,faults,count,sha256",
                         GOLDEN_SESSION_TRACES)
def test_fast_path_session_trace_golden(limit, protocol, faults, count, sha256):
    setup = SessionSetup(
        broadcast=make_broadcast(seed=2016),
        age_at_join=600.0,
        protocol=DeliveryProtocol[protocol],
        device=GALAXY_S4,
        bandwidth_limit_mbps=limit,
        watch_seconds=12.0,
        seed=2016,
        faults=FaultPlan.parse(faults) if faults else None,
    )
    assert fastpath.enabled()
    capture = ViewingSession(setup).run().capture
    assert len(capture) == count  # answered from the log
    lines = _canonical_trace(capture)
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == sha256
