"""Window-limited reliable byte streams ("TCP-ish" connections).

The model keeps what matters for the paper's phenomena and drops the
rest:

* **kept** — in-order reliable delivery; a bounded window of unacknowledged
  bytes (so a sender cannot flood the path: ACK clocking makes concurrent
  flows share a bottleneck link roughly fairly, and bounds queue build-up);
  per-packet serialization and queueing delays; message framing so the
  application sees frame/segment boundaries.
* **dropped** — loss and retransmission (links are lossless FIFOs, so
  ordering is guaranteed and loss recovery would be dead code); byte-exact
  header emulation beyond a constant per-packet overhead.

A :class:`Message` is the application unit (an RTMP chunk batch, an HTTP
response carrying a TS segment, a chat frame...).  Messages are chunked
into MSS-sized packets; the receiver's callback fires when the final byte
of the message arrives.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Sequence

import repro.netsim.fastpath as fastpath
from repro.netsim.events import EventLoop
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.packet import MSS, Packet

_flow_ids = itertools.count(1)
_message_ids = itertools.count(1)

#: Default window of unacknowledged bytes per connection.  64 kB is the
#: classic un-scaled TCP receive window; with RTTs of tens of milliseconds
#: it supports well above the stream rates in this study.
DEFAULT_WINDOW_BYTES = 64 * 1024

#: ACK packets carry no payload bytes (pure header on the wire).
ACK_BYTES = 0


@dataclass
class Message:
    """An application-level message travelling over a connection."""

    payload: Any
    nbytes: int
    annotations: Dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_message_ids))
    #: Real bytes, when the experiment runs at byte fidelity.  When set,
    #: each packet carries its slice so captures can be reassembled into
    #: the original bitstream.
    data: Optional[bytes] = None
    #: Filled in by the connection when the message is queued / delivered.
    queued_at: float = -1.0
    delivered_at: float = -1.0

    def __post_init__(self) -> None:
        if self.data is not None and len(self.data) != self.nbytes:
            raise ValueError(
                f"data length {len(self.data)} != declared nbytes {self.nbytes}"
            )
        if self.nbytes <= 0:
            raise ValueError("messages must carry at least one byte")


class Path:
    """A unidirectional route: alternating hosts and links.

    ``hosts`` has one more element than ``links``; ``hosts[0]`` is the
    sender and ``hosts[-1]`` the receiver.  The path does not own the
    links — many paths may share a link (that sharing *is* the bottleneck
    model).
    """

    def __init__(self, hosts: Sequence[Host], links: Sequence[Link]) -> None:
        if len(hosts) != len(links) + 1:
            raise ValueError("a path interleaves N+1 hosts with N links")
        if not links:
            raise ValueError("a path needs at least one link")
        self.hosts = list(hosts)
        self.links = list(links)

    @property
    def src(self) -> Host:
        return self.hosts[0]

    @property
    def dst(self) -> Host:
        return self.hosts[-1]

    @property
    def first_link(self) -> Link:
        return self.links[0]

    def install(
        self, flow_id: int, handler: Callable[[Packet], None], ack: bool = False
    ) -> None:
        """Install forwarding state for one direction of ``flow_id`` along
        the path and the terminal ``handler`` at the destination."""
        for host, next_link in zip(self.hosts[1:-1], self.links[1:]):
            host.route_flow(flow_id, next_link, ack=ack)
        self.dst.bind_flow(flow_id, handler, ack=ack)

    def uninstall(self, flow_id: int) -> None:
        """Remove the per-flow state installed by :meth:`install`."""
        for host in self.hosts[1:]:
            host.unbind_flow(flow_id)

    def propagation_delay(self) -> float:
        """Sum of propagation delays along the path."""
        return sum(link.delay_s for link in self.links)

    def reversed_over(self, reverse_links: Sequence[Link]) -> "Path":
        """Build the reverse path over the given opposite-direction links."""
        return Path(list(reversed(self.hosts)), list(reverse_links))


class Connection:
    """A bidirectional reliable stream between two hosts.

    Data flows ``src -> dst`` over ``forward``; ACKs flow back over
    ``reverse``.  Call :meth:`send` on the source side; the destination
    receives whole messages through ``on_message``.
    """

    def __init__(
        self,
        loop: EventLoop,
        forward: Path,
        reverse: Path,
        on_message: Optional[Callable[[Message, float], None]] = None,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        name: str = "",
    ) -> None:
        if window_bytes < MSS:
            raise ValueError("window must hold at least one segment")
        if forward.src is not reverse.dst or forward.dst is not reverse.src:
            raise ValueError("reverse path must mirror the forward path endpoints")
        self.loop = loop
        self.forward = forward
        self.reverse = reverse
        self.on_message = on_message
        self.window_bytes = window_bytes
        self.flow_id = next(_flow_ids)
        self.name = name or f"conn{self.flow_id}"
        self.closed = False

        self._send_queue: Deque[Packet] = deque()
        self._in_flight = 0
        self._next_seq = 0
        self._bytes_sent = 0
        self._bytes_delivered = 0

        forward.install(self.flow_id, self._deliver_data, ack=False)
        reverse.install(self.flow_id, self._deliver_ack, ack=True)

        #: Fast-path lane (see :mod:`repro.netsim.fastpath`): books the
        #: same link arithmetic without per-packet events.  None when
        #: the exact per-packet path is requested.
        self._lane: Optional[fastpath.FastLane] = None
        engine = fastpath.attach(loop)
        if engine is not None:
            self._lane = fastpath.FastLane(engine, self)

    @property
    def src(self) -> Host:
        return self.forward.src

    @property
    def dst(self) -> Host:
        return self.forward.dst

    # ------------------------------------------------------------------ send

    def send(self, message: Message) -> Message:
        """Queue a message for transmission.  Returns the message (with
        ``queued_at`` stamped) for caller-side bookkeeping."""
        if self.closed:
            raise RuntimeError(f"send on closed connection {self.name}")
        if self._lane is not None:
            return self._lane.send(message)
        message.queued_at = self.loop.now
        offset = 0
        while offset < message.nbytes:
            size = min(MSS, message.nbytes - offset)
            chunk = None
            if message.data is not None:
                chunk = message.data[offset : offset + size]
            packet = Packet(
                flow_id=self.flow_id,
                seq=self._next_seq,
                payload_bytes=size,
                message_id=message.message_id,
                message_offset=offset,
                message_total=message.nbytes,
                annotations=dict(message.annotations),
                chunk=chunk,
            )
            # Stash the payload object on the final packet so the receiver
            # can hand the application the original message.
            if offset + size >= message.nbytes:
                packet.annotations["_message"] = message
            self._next_seq += 1
            offset += size
            self._send_queue.append(packet)
        self._pump()
        return message

    def _pump(self) -> None:
        while (
            self._send_queue
            and self._in_flight + self._send_queue[0].payload_bytes <= self.window_bytes
        ):
            packet = self._send_queue.popleft()
            packet.sent_at = self.loop.now
            self._in_flight += packet.payload_bytes
            self._bytes_sent += packet.payload_bytes
            self.forward.first_link.send(packet)

    # --------------------------------------------------------------- receive

    def _deliver_data(self, packet: Packet) -> None:
        if self.closed:
            return
        self._bytes_delivered += packet.payload_bytes
        # Lossless FIFO path: arrival order is send order, so the last
        # packet of a message marks message completion.
        message = packet.annotations.get("_message")
        if message is not None:
            message.delivered_at = self.loop.now
            if self.on_message is not None:
                self.on_message(message, self.loop.now)
        ack = Packet(
            flow_id=self.flow_id,
            seq=packet.seq,
            payload_bytes=ACK_BYTES,
            is_ack=True,
            annotations={"_acked_bytes": packet.payload_bytes},
        )
        self.reverse.first_link.send(ack)

    def _deliver_ack(self, packet: Packet) -> None:
        if self.closed:
            return
        self._in_flight -= packet.annotations.get("_acked_bytes", 0)
        self._pump()

    # ----------------------------------------------------------------- admin

    def close(self) -> None:
        """Tear down the connection; queued data is discarded.

        A closed connection delivers nothing more, so it also drops its
        ``on_message`` handler and its fast-path lane: both usually
        refer back to the connection's owner."""
        if self.closed:
            return
        self.closed = True
        self._send_queue.clear()
        self.forward.uninstall(self.flow_id)
        self.reverse.uninstall(self.flow_id)
        self.on_message = None
        self._lane = None

    @property
    def backlog_bytes(self) -> int:
        """Bytes queued at the sender but not yet handed to the network."""
        return sum(p.payload_bytes for p in self._send_queue)

    @property
    def bytes_delivered(self) -> int:
        return self._bytes_delivered

    @property
    def in_flight_bytes(self) -> int:
        return self._in_flight

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Connection({self.name!r}, {self.src.name}->{self.dst.name})"
