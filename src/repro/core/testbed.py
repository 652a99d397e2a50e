"""Per-session testbed topology.

Mirrors the paper's measurement setup: a phone reverse-tethered through a
USB link to a Linux desktop with >100 Mbps of Internet access, optional
``tc`` shaping on the desktop→phone direction, and ``tcpdump`` capture on
the tether.  Servers (API frontend, media server, chat, the S3 avatar
bucket) each sit behind their own desktop↔server path whose propagation
delay reflects geography.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.faults.plan import FaultPlan
from repro.netsim.connection import Connection, Message
from repro.netsim.duplex import DuplexStream
from repro.netsim.events import EventLoop
from repro.netsim.link import TokenBucketShaper
from repro.netsim.topology import Network
from repro.netsim.trace import TraceCapture
from repro.service.geo import GeoPoint
from repro.util.rng import child_rng
from repro.util.units import MBPS

#: Where the measurement phones sat (Finland).
VIEWER_LOCATION = GeoPoint(60.2, 24.9)

#: Propagation model: per-degree great-circle-ish cost plus a floor for
#: last-mile and peering hops.
DELAY_FLOOR_S = 0.008
DELAY_PER_DEG_S = 0.0009


def path_delay_s(a: GeoPoint, b: GeoPoint) -> float:
    """One-way propagation delay between two locations."""
    return DELAY_FLOOR_S + a.distance_deg(b) * DELAY_PER_DEG_S


@dataclass
class TestbedConfig:
    """Knobs of one session's network environment."""

    # Not a test class despite the name; keep pytest from collecting it.
    __test__ = False

    #: Download shaping on the tether (None = unshaped).
    shaper: Optional[TokenBucketShaper] = None
    access_bandwidth_bps: float = 100.0 * MBPS
    tether_delay_s: float = 0.001
    backbone_bandwidth_bps: float = 500.0 * MBPS
    capture_payload: bool = False
    #: Optional fault scenario; link impairments are built from child
    #: streams of ``fault_seed`` over ``fault_horizon_s`` of session time.
    faults: Optional[FaultPlan] = None
    fault_seed: object = 0
    fault_horizon_s: float = 120.0


class SessionTestbed:
    """One phone + desktop + the servers a session talks to."""

    def __init__(self, loop: EventLoop, config: TestbedConfig) -> None:
        self.loop = loop
        self.config = config
        self.net = Network(loop)
        self.phone = self.net.host("phone")
        self.desktop = self.net.host("desktop")
        self._server_locations: Dict[str, GeoPoint] = {}
        #: Everything built over the topology, closed by :meth:`close`.
        self._streams: List[DuplexStream] = []
        self._connections: List[Connection] = []
        # The tether: shaping applies desktop -> phone (download).
        self.net.duplex(
            self.desktop,
            self.phone,
            rate_bps=config.access_bandwidth_bps,
            delay_s=config.tether_delay_s,
            down_shaper=config.shaper,
        )
        # Access-link impairments: the tether is where mobile loss,
        # jitter, and flaps live (each direction draws its own stream).
        if config.faults is not None and config.faults.has_link_faults:
            down_link = self.net.link_between(self.desktop, self.phone)
            up_link = self.net.link_between(self.phone, self.desktop)
            down_link.impairment = config.faults.link_impairment(
                child_rng(config.fault_seed, "fault-link-down"),
                config.fault_horizon_s, name=down_link.name,
            )
            up_link.impairment = config.faults.link_impairment(
                child_rng(config.fault_seed, "fault-link-up"),
                config.fault_horizon_s, name=up_link.name,
            )
        # tcpdump on the tether, both directions.
        self.capture = TraceCapture(capture_payload=config.capture_payload)
        self.capture.tap_link(self.net.link_between(self.desktop, self.phone), "down")
        self.capture.tap_link(self.net.link_between(self.phone, self.desktop), "up")

    def add_server(self, name: str, location: GeoPoint) -> None:
        """Create a server host behind the desktop at the given location."""
        if name in self._server_locations:
            raise ValueError(f"server {name!r} already exists")
        server = self.net.host(name)
        self.net.duplex(
            server,
            self.desktop,
            rate_bps=self.config.backbone_bandwidth_bps,
            delay_s=path_delay_s(location, VIEWER_LOCATION),
        )
        self._server_locations[name] = location

    def stream_to(self, server_name: str, window_bytes: Optional[int] = None,
                  name: str = "") -> DuplexStream:
        """A duplex stream phone <-> server through the desktop."""
        if server_name not in self._server_locations:
            raise KeyError(f"unknown server {server_name!r}")
        stream = DuplexStream(
            self.loop, self.net, "phone", "desktop", server_name,
            window_bytes=window_bytes, name=name or f"phone<->{server_name}",
        )
        self._streams.append(stream)
        return stream

    def connect(self, *host_names: str,
                on_message: Optional[Callable[[Message, float], None]] = None,
                name: str = "") -> Connection:
        """A one-way connection along the named hosts (data flows from
        the first to the last; ACKs return the same way)."""
        forward, reverse = self.net.duplex_paths(*host_names)
        connection = Connection(self.loop, forward, reverse,
                                on_message=on_message, name=name)
        self._connections.append(connection)
        return connection

    def close(self) -> None:
        """Tear the topology down once the session is over.

        Stops the capture (its records stay readable), closes every
        stream and connection built here, and unwires hosts and links,
        breaking the reference cycles among them."""
        self.capture.stop()
        for stream in self._streams:
            stream.close()
        for connection in self._connections:
            connection.close()
        self.net.close()

    def server_paths(self, server_name: str):
        """(server->phone, phone->server) paths for raw connections."""
        forward = self.net.path(server_name, "desktop", "phone")
        reverse = self.net.path("phone", "desktop", server_name)
        return forward, reverse

    def rtt_to(self, server_name: str) -> float:
        """Round-trip propagation time phone <-> server."""
        forward, _ = self.server_paths(server_name)
        return 2.0 * (forward.propagation_delay())
