"""Packet and capture-record types.

A :class:`Packet` is the unit moved by links.  Application payloads are
chunked into packets of at most ``MSS`` bytes by the connection layer; a
packet remembers which message it belongs to and which byte range of the
message it carries, which is exactly the information the reassembly code
in :mod:`repro.capture.reconstruct` needs (it mirrors what wireshark's
"follow TCP stream" recovers from sequence numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional, Tuple

#: Maximum segment size used by connections, in bytes (typical TCP MSS on
#: an Ethernet path).
MSS = 1448

#: Bytes of per-packet overhead counted on the wire (IP + TCP headers).
HEADER_BYTES = 52


@dataclass
class Packet:
    """A data or ACK packet in flight.

    ``payload_bytes`` is application bytes only; :attr:`wire_bytes` adds
    header overhead and is what links serialize.
    """

    flow_id: int
    seq: int
    payload_bytes: int
    is_ack: bool = False
    message_id: int = -1
    message_offset: int = 0
    message_total: int = 0
    annotations: Dict[str, Any] = field(default_factory=dict)
    #: Byte slice of the message carried by this packet (only when the
    #: message was sent with real bytes attached).
    chunk: Optional[bytes] = None
    #: Filled by the connection layer: time the packet entered the network.
    sent_at: float = 0.0

    @property
    def wire_bytes(self) -> int:
        """Size serialized on the wire, including headers."""
        return self.payload_bytes + HEADER_BYTES


class PacketRecord(NamedTuple):
    """One line of a tcpdump-like capture: an observed packet at a capture
    point, with its observation timestamp.

    A named tuple rather than a frozen dataclass: captures create one
    record per packet per tapped link, and tuple construction is the
    cheapest immutable snapshot Python offers.
    """

    timestamp: float
    flow_id: int
    seq: int
    payload_bytes: int
    wire_bytes: int
    is_ack: bool
    direction: str
    message_id: int
    message_offset: int
    message_total: int
    annotations: Tuple[Tuple[str, Any], ...]
    chunk: Optional[bytes] = None

    @staticmethod
    def of(
        packet: Packet,
        timestamp: float,
        direction: str,
        keep_payload: bool = True,
    ) -> "PacketRecord":
        """Snapshot ``packet`` as observed at ``timestamp``.

        ``keep_payload=False`` drops the byte slice (a capture without
        payloads, like ``tcpdump -s 96``)."""
        # Keys are unique, so a plain tuple sort equals key-sorted order.
        annotations = tuple(sorted(packet.annotations.items()))
        return PacketRecord(
            timestamp,
            packet.flow_id,
            packet.seq,
            packet.payload_bytes,
            packet.payload_bytes + HEADER_BYTES,
            packet.is_ack,
            direction,
            packet.message_id,
            packet.message_offset,
            packet.message_total,
            annotations,
            packet.chunk if keep_payload else None,
        )

    def annotation(self, key: str, default: Any = None) -> Any:
        """Look up one annotation by key."""
        for k, v in self.annotations:
            if k == key:
                return v
        return default
