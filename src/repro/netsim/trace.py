"""tcpdump-equivalent: packet capture at chosen links.

The paper captured all video/audio traffic on the tethering desktop with
``tcpdump`` and later reconstructed streams with wireshark.  Here a
:class:`TraceCapture` taps one or more links and accumulates
:class:`~repro.netsim.packet.PacketRecord` entries, which
:mod:`repro.capture.reconstruct` post-processes the same way.

Like tcpdump writing a pcap, the capture only *logs* while traffic
flows and decodes afterwards.  On the :mod:`repro.netsim.fastpath`
transport a tapped packet costs one log entry of the fields the fast
path already holds; :attr:`TraceCapture.records` builds the records
from the log on first read, in log order, and keeps extending them if
more traffic arrives after a read.  ``len(capture)`` and
:meth:`TraceCapture.total_bytes` are answered from the log without
building anything.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.netsim.link import Link
from repro.netsim.packet import HEADER_BYTES, Packet, PacketRecord

RecordFilter = Callable[[PacketRecord], bool]


def _with_message(items: Tuple[Tuple[str, Any], ...], message) -> Tuple[Tuple[str, Any], ...]:
    """``items`` (key-sorted) with ``("_message", message)`` spliced into
    its sorted slot — what the final segment of a message carries."""
    slot = 0
    for key, _ in items:
        if key > "_message":
            break
        slot += 1
    return items[:slot] + (("_message", message),) + items[slot:]


#: Log slots per captured fast-path segment: ``(timestamp, header, seq,
#: offset, payload_bytes, flow_id, is_ack, direction)``.
_STRIDE = 8


class TraceCapture:
    """Accumulates packet records from tapped links.

    Each tapped link is labelled with a *direction* string (e.g. ``"down"``
    for server→phone, ``"up"`` for phone→server) that ends up on every
    record, mirroring how a capture on a physical interface distinguishes
    RX from TX.

    ``capture_payload=False`` drops the byte slices from the records (a
    capture without payloads, like ``tcpdump -s 96``); it is fixed at
    construction because records are built after the fact.
    """

    def __init__(self, capture_payload: bool = True) -> None:
        self._capture_payload = capture_payload
        #: Records built so far, in capture order.
        self._records: List[PacketRecord] = []
        #: Fast-path segments captured after ``_records``, not yet built:
        #: ``_STRIDE`` flat slots each.  Every slot references an object
        #: the fast path already holds (the per-message header, ints,
        #: the timestamp float), so the log keeps no segment, and no
        #: object the cyclic collector tracks per packet, alive.
        self._log: List[Any] = []
        self._taps: List[tuple] = []
        self.enabled = True

    @property
    def capture_payload(self) -> bool:
        return self._capture_payload

    def tap_link(self, link: Link, direction: str) -> None:
        """Start capturing packets entering ``link``."""
        keep_payload = self._capture_payload
        log = self._log.extend

        def observer(packet: Packet, timestamp: float) -> None:
            # Exact path: a Packet may change after the tap, so its
            # record is built now, after every earlier logged segment.
            if self.enabled:
                self.records.append(
                    PacketRecord.of(packet, timestamp, direction, keep_payload))

        def log_segment(timestamp: float, segment, flow_id: int, is_ack: bool) -> None:
            # Fast path: a segment's fields never change once sent, so
            # they are logged as they are and the record waits for a read.
            if self.enabled:
                log((timestamp, segment.header, segment.seq, segment.offset,
                     segment.payload_bytes, flow_id, is_ack, direction))

        link.tap(observer, log_segment)
        self._taps.append((link, observer))

    def stop(self) -> None:
        """Detach from all links (records are kept)."""
        for link, observer in self._taps:
            link.untap(observer)
        self._taps.clear()

    def pause(self) -> None:
        """Temporarily stop recording without detaching."""
        self.enabled = False

    def resume(self) -> None:
        self.enabled = True

    # ----------------------------------------------------------- the log

    @property
    def records(self) -> List[PacketRecord]:
        """Every captured record, in capture order."""
        if self._log:
            self._build()
        return self._records

    def _build(self) -> None:
        """Turn the logged segments into records, exactly as an eager tap
        would have: same fields, same order, equal annotation tuples."""
        keep_payload = self._capture_payload
        append = self._records.append
        record = PacketRecord
        # Key-sorted annotations per message header, sorted once.
        sorted_items: Dict[int, Tuple[Tuple[str, Any], ...]] = {}
        # zip over one iterator repeated _STRIDE times walks the flat
        # log one segment at a time.
        for (timestamp, header, seq, offset, payload, flow_id, is_ack,
             direction) in zip(*[iter(self._log)] * _STRIDE):
            if is_ack:
                append(record(
                    timestamp, flow_id, seq, 0, HEADER_BYTES, True,
                    direction, -1, 0, 0, (("_acked_bytes", payload),), None,
                ))
                continue
            message, message_id, total, items, data = header
            annotations = sorted_items.get(id(header))
            if annotations is None:
                # Keys are unique, so a plain tuple sort never compares
                # values and equals the key-sorted order.
                annotations = sorted_items[id(header)] = tuple(sorted(items))
            end = offset + payload
            if end >= total:
                annotations = _with_message(annotations, message)
            chunk = None
            if keep_payload and data is not None:
                chunk = data[offset:end]
            append(record(
                timestamp, flow_id, seq, payload, payload + HEADER_BYTES,
                False, direction, message_id, offset, total, annotations,
                chunk,
            ))
        self._log.clear()

    # ------------------------------------------------------------- queries

    def filter(self, predicate: RecordFilter) -> List[PacketRecord]:
        """All records matching ``predicate``, in capture order."""
        return [r for r in self.records if predicate(r)]

    def flows(self) -> Dict[int, List[PacketRecord]]:
        """Records grouped by flow id (ACKs included)."""
        grouped: Dict[int, List[PacketRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.flow_id, []).append(record)
        return grouped

    def data_records(self, flow_id: Optional[int] = None) -> List[PacketRecord]:
        """Non-ACK records, optionally restricted to one flow."""
        return [
            r
            for r in self.records
            if not r.is_ack and (flow_id is None or r.flow_id == flow_id)
        ]

    def total_bytes(self, direction: Optional[str] = None, include_acks: bool = True) -> int:
        """Total wire bytes observed (for traffic-volume comparisons).

        Read from the built records and the log, so it builds nothing.
        A logged ACK carries the payload it acknowledges, hence the
        header-only size for every ACK."""
        log = self._log
        packets = itertools.chain(
            ((r.payload_bytes, r.is_ack, r.direction) for r in self._records),
            zip(log[4::_STRIDE], log[6::_STRIDE], log[7::_STRIDE]),
        )
        return sum(
            HEADER_BYTES if is_ack else payload + HEADER_BYTES
            for payload, is_ack, d in packets
            if (direction is None or d == direction)
            and (include_acks or not is_ack)
        )

    def byterate_bps(self, t0: float, t1: float, direction: Optional[str] = None) -> float:
        """Average observed rate over ``[t0, t1)`` in bits per second."""
        if t1 <= t0:
            raise ValueError("t1 must exceed t0")
        nbytes = sum(
            r.wire_bytes
            for r in self.records
            if t0 <= r.timestamp < t1 and (direction is None or r.direction == direction)
        )
        return nbytes * 8.0 / (t1 - t0)

    def __len__(self) -> int:
        return len(self._records) + len(self._log) // _STRIDE


def canonical_trace(capture: TraceCapture) -> List[str]:
    """Render a capture as stable text lines, one per record, in capture
    order: what the fast-path identity tests and the benchmark's trace
    gate compare.

    Flow and message ids come from process-global counters, so they are
    normalized to first-appearance indices; ``_``-prefixed annotations
    carry live objects and are skipped.
    """
    flow_index: Dict[int, int] = {}
    message_index: Dict[int, int] = {}
    lines = []
    for record in capture.records:
        flow = flow_index.setdefault(record.flow_id, len(flow_index))
        if record.message_id < 0:
            message = -1
        else:
            message = message_index.setdefault(
                record.message_id, len(message_index))
        annotations = ",".join(
            f"{key}={value!r}"
            for key, value in record.annotations
            if not key.startswith("_")
            and isinstance(value, (str, int, float, bool, type(None)))
        )
        lines.append(
            f"{record.timestamp:.9f} {record.direction} flow={flow} "
            f"seq={record.seq} bytes={record.payload_bytes}/{record.wire_bytes} "
            f"ack={int(record.is_ack)} "
            f"msg={message}:{record.message_offset}:{record.message_total} "
            f"[{annotations}]"
        )
    return lines
