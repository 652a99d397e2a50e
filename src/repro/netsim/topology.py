"""Topology building helpers: duplex links and path construction.

Keeps the wiring boilerplate (terminate both directions, remember the
link pair between two hosts) out of experiment code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netsim.events import EventLoop
from repro.netsim.host import Host
from repro.netsim.link import Link, TokenBucketShaper
from repro.netsim.connection import Path


@dataclass
class DuplexLink:
    """A pair of opposite-direction links between two hosts."""

    a: Host
    b: Host
    a_to_b: Link
    b_to_a: Link

    def toward(self, host: Host) -> Link:
        """The link whose packets arrive at ``host``."""
        if host is self.b:
            return self.a_to_b
        if host is self.a:
            return self.b_to_a
        raise ValueError(f"{host!r} is not an endpoint of this duplex link")


class Network:
    """A collection of hosts and duplex links with path construction.

    The simulated testbed graphs are tiny (a handful of hosts), so path
    lookup walks explicit adjacency rather than running a routing
    algorithm.
    """

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self.hosts: Dict[str, Host] = {}
        self._adjacent: Dict[Tuple[str, str], DuplexLink] = {}

    def host(self, name: str) -> Host:
        """Get or create the named host."""
        if name not in self.hosts:
            self.hosts[name] = Host(self.loop, name)
        return self.hosts[name]

    def duplex(
        self,
        a: Host,
        b: Host,
        rate_bps: float,
        delay_s: float,
        up_rate_bps: Optional[float] = None,
        up_shaper: Optional[TokenBucketShaper] = None,
        down_shaper: Optional[TokenBucketShaper] = None,
    ) -> DuplexLink:
        """Create and wire a duplex link ``a <-> b``.

        ``rate_bps`` applies a→b (the "down" direction when *b* is the
        client); ``up_rate_bps`` defaults to symmetric.
        """
        ab = Link(self.loop, rate_bps, delay_s, name=f"{a.name}->{b.name}", shaper=down_shaper)
        ba = Link(
            self.loop,
            up_rate_bps if up_rate_bps is not None else rate_bps,
            delay_s,
            name=f"{b.name}->{a.name}",
            shaper=up_shaper,
        )
        b.terminate(ab)
        a.terminate(ba)
        duplex = DuplexLink(a=a, b=b, a_to_b=ab, b_to_a=ba)
        self._adjacent[(a.name, b.name)] = duplex
        self._adjacent[(b.name, a.name)] = duplex
        return duplex

    def close(self) -> None:
        """Unwire every host and link (see :meth:`Link.close`); the
        links keep their counters."""
        for host in self.hosts.values():
            host.close()
        for duplex in self._adjacent.values():
            duplex.a_to_b.close()
            duplex.b_to_a.close()

    def link_between(self, src: Host, dst: Host) -> Link:
        """The directional link carrying packets from ``src`` to ``dst``."""
        duplex = self._adjacent.get((src.name, dst.name))
        if duplex is None:
            raise KeyError(f"no link between {src.name} and {dst.name}")
        return duplex.toward(dst)

    def path(self, *host_names: str) -> Path:
        """Build a :class:`Path` along the named chain of hosts."""
        if len(host_names) < 2:
            raise ValueError("a path needs at least two hosts")
        hosts = [self.host(name) for name in host_names]
        links = [
            self.link_between(src, dst) for src, dst in zip(hosts, hosts[1:])
        ]
        return Path(hosts, links)

    def duplex_paths(self, *host_names: str) -> Tuple[Path, Path]:
        """Forward and reverse paths along the same chain of hosts."""
        forward = self.path(*host_names)
        reverse = self.path(*reversed(host_names))
        return forward, reverse
