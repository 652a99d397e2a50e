"""Hosts: named nodes that terminate links and route packets by flow.

The testbed topology is hub-and-spoke — phone ↔ tethering desktop ↔ many
servers — and several connections share the phone's access link (video,
chat, avatar downloads).  Links are wired to their receiving host once, at
topology-build time; each connection then installs per-flow state at every
host on its path: a *local handler* at the endpoints and a *next-hop link*
at intermediate hosts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.packet import Packet


class Host:
    """A named simulation node (phone, desktop, ingest server, CDN edge)."""

    def __init__(self, loop: EventLoop, name: str) -> None:
        self.loop = loop
        self.name = name
        # Per-flow state is keyed by (flow_id, is_ack) because the data and
        # ACK directions of one connection traverse the same intermediate
        # hosts in opposite directions.
        self._handlers: Dict[tuple, Callable[[Packet], None]] = {}
        self._routes: Dict[tuple, Link] = {}
        self.incoming: List[Link] = []

    def terminate(self, link: Link) -> None:
        """Declare this host the receiving end of ``link``."""
        link.deliver = self.receive
        self.incoming.append(link)

    def bind_flow(
        self, flow_id: int, handler: Callable[[Packet], None], ack: bool = False
    ) -> None:
        """Deliver arriving packets of one flow direction to ``handler``."""
        key = (flow_id, ack)
        if key in self._handlers:
            raise ValueError(f"flow {key} already bound on {self.name}")
        self._handlers[key] = handler

    def route_flow(self, flow_id: int, next_link: Link, ack: bool = False) -> None:
        """Forward arriving packets of one flow direction onto ``next_link``."""
        key = (flow_id, ack)
        if key in self._routes:
            raise ValueError(f"flow {key} already routed on {self.name}")
        self._routes[key] = next_link

    def unbind_flow(self, flow_id: int) -> None:
        """Remove all per-flow state for ``flow_id`` (idempotent)."""
        for ack in (False, True):
            self._handlers.pop((flow_id, ack), None)
            self._routes.pop((flow_id, ack), None)

    def close(self) -> None:
        """Drop all per-flow state and the links terminated here."""
        self._handlers.clear()
        self._routes.clear()
        self.incoming.clear()

    def receive(self, packet: Packet) -> None:
        """Handle an arriving packet: local delivery, forward, or drop."""
        key = (packet.flow_id, packet.is_ack)
        handler = self._handlers.get(key)
        if handler is not None:
            handler(packet)
            return
        next_link = self._routes.get(key)
        if next_link is not None:
            next_link.send(packet)
            return
        # Packet for a closed/unknown connection: drop, as a real kernel
        # answers with an RST nobody listens for.

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Host({self.name!r})"


class Interface:
    """Convenience alias kept for symmetry with real stacks: terminating a
    link at a host is the only interface operation the simulator needs."""

    def __init__(self, host: Host, link: Link) -> None:
        self.host = host
        self.link = link
        host.terminate(link)
