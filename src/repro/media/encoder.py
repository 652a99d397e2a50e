"""AVC-like video encoder model.

Produces :class:`~repro.media.frames.EncodedFrame` records in decode
(transmission) order, driven by a content-complexity process and the
rate controller.  The model reproduces the Section 5.2 census:

* GOP patterns — most streams use a repeated IBP scheme (display order
  ``I B P B P …``); roughly a fifth use only I and P frames; I-only
  streams are rare and wildly inefficient (their bitrate explains the
  higher RTMP maximum in Fig. 6(a));
* a new I frame roughly every 36 frames;
* variable frame rate up to 30 fps with occasional missing frames
  (uploader glitches) that the viewer must conceal;
* an NTP wall-clock timestamp embedded into the video data about once a
  second (the paper's delivery-latency measurement hook).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.media.content import ContentProcess
from repro.media.frames import EncodedFrame
from repro.media.rate_control import RateController


@dataclass(frozen=True)
class GopPattern:
    """Group-of-pictures structure.

    ``kind`` is one of ``"IBP"`` (B frames between references), ``"IP"``
    (no B frames) or ``"I"`` (intra only).  ``i_period`` is the distance
    in frames between consecutive I frames.
    """

    kind: str
    i_period: int = 36

    def __post_init__(self) -> None:
        if self.kind not in ("IBP", "IP", "I"):
            raise ValueError(f"unknown GOP kind {self.kind!r}")
        if self.i_period < 1:
            raise ValueError("i_period must be >= 1")

    @property
    def uses_b_frames(self) -> bool:
        return self.kind == "IBP"

    def display_types(self) -> List[str]:
        """Frame types of one GOP in display order."""
        if self.kind == "I":
            return ["I"] * self.i_period
        if self.kind == "IP":
            return ["I"] + ["P"] * (self.i_period - 1)
        types = ["I"]
        for position in range(1, self.i_period):
            types.append("B" if position % 2 == 1 else "P")
        # A closed GOP must not end on a B frame (it would need the next
        # GOP's I frame as its forward reference).
        if types[-1] == "B":
            types[-1] = "P"
        return types

    #: Population frequencies from the paper: ~80% IBP, ~19-20% I+P only,
    #: I-only observed in 2 streams out of the whole capture set.
    SAMPLE_WEIGHTS = (("IBP", 0.795), ("IP", 0.195), ("I", 0.01))

    @classmethod
    def sample(cls, rng: random.Random) -> "GopPattern":
        """Draw a pattern with the observed population frequencies; the I
        period jitters around 36 frames."""
        pick = rng.random()
        acc = 0.0
        kind = cls.SAMPLE_WEIGHTS[-1][0]
        for name, weight in cls.SAMPLE_WEIGHTS:
            acc += weight
            if pick < acc:
                kind = name
                break
        i_period = max(12, int(round(rng.gauss(36, 3))))
        return cls(kind=kind, i_period=i_period)


@dataclass
class EncoderSettings:
    """Static encoder configuration for one broadcast."""

    target_bps: float
    #: Nominal capture frame rate (frames/s); the effective rate is lower
    #: because of jitter and drops.
    nominal_fps: float = 30.0
    #: Mean fraction of frames the capture pipeline drops (device load,
    #: camera glitches).  Galaxy S3 drops noticeably more than S4.
    drop_rate: float = 0.02
    #: Std-dev of the per-frame interval, as a fraction of the interval.
    interval_jitter: float = 0.10
    gop: GopPattern = field(default_factory=lambda: GopPattern("IBP"))
    #: Media-time seconds between embedded NTP timestamps.
    ntp_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.target_bps <= 0:
            raise ValueError("target bitrate must be positive")
        if not 0 <= self.drop_rate < 1:
            raise ValueError("drop rate must be in [0, 1)")
        if self.nominal_fps <= 0:
            raise ValueError("nominal fps must be positive")


class VideoEncoder:
    """Encode a broadcast: content process -> rate-controlled frames.

    Frames are yielded in **decode order** (the order they are pushed to
    the network); each frame carries both ``dts`` and ``pts``.  With the
    IBP pattern a B frame is transmitted after the P frame that follows it
    in display order — the one-frame latency penalty the paper notes.
    """

    def __init__(
        self,
        settings: EncoderSettings,
        content: ContentProcess,
        rng: random.Random,
        wallclock_start: float = 0.0,
    ) -> None:
        self.settings = settings
        self.content = content
        self._rng = rng
        self.wallclock_start = wallclock_start
        self.rate_control = RateController(
            target_bps=settings.target_bps, fps=settings.nominal_fps
        )
        self._frame_index = 0
        self._bits_total = 0.0
        self._qp_sum = 0.0
        self._frames_encoded = 0

    # ------------------------------------------------------------ statistics

    @property
    def frames_encoded(self) -> int:
        return self._frames_encoded

    def average_bitrate_bps(self, duration_s: float) -> float:
        """Mean output bitrate over an encoded duration."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return self._bits_total / duration_s

    @property
    def average_qp(self) -> float:
        if self._frames_encoded == 0:
            raise ValueError("no frames encoded yet")
        return self._qp_sum / self._frames_encoded

    # -------------------------------------------------------------- encoding

    def _display_schedule(self, duration_s: float) -> List[Tuple[float, str]]:
        """(pts, type) pairs in display order, with jitter and drops."""
        interval = 1.0 / self.settings.nominal_fps
        schedule: List[Tuple[float, str]] = []
        gop_types = self.settings.gop.display_types()
        pts = 0.0
        position = 0
        while pts < duration_s:
            frame_type = gop_types[position % len(gop_types)]
            position += 1
            step = max(
                interval * 0.5,
                self._rng.gauss(interval, interval * self.settings.interval_jitter),
            )
            dropped = self._rng.random() < self.settings.drop_rate
            # I frames are never dropped (the encoder restarts the GOP on
            # them); dropping one would stall the whole GOP.
            if dropped and frame_type != "I":
                pts += step
                continue
            schedule.append((pts, frame_type))
            pts += step
        return schedule

    @staticmethod
    def _decode_order(display: List[Tuple[float, str]]) -> List[Tuple[float, str]]:
        """Reorder display-order frames into decode order: each B frame is
        moved after the next reference frame."""
        decode: List[Tuple[float, str]] = []
        pending_b: List[Tuple[float, str]] = []
        for pts, frame_type in display:
            if frame_type == "B":
                pending_b.append((pts, frame_type))
            else:
                decode.append((pts, frame_type))
                decode.extend(pending_b)
                pending_b.clear()
        # A truncated stream can end on display-order B frames that never
        # get a forward reference; a real encoder emits them as P instead.
        decode.extend((pts, "P") for pts, _ in pending_b)
        return decode

    def generate(self, duration_s: float,
                 offset: float = 0.0) -> Iterator[EncodedFrame]:
        """Yield the frames of ``duration_s`` seconds of broadcast, in
        decode order.

        ``offset`` places the frames at that many seconds into the
        broadcast's media timeline: ``pts``, ``dts`` and the embedded
        NTP timestamp are shifted by it (the encoder's own schedule,
        RNG draws and rate control do not depend on it)."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        display = self._display_schedule(duration_s)
        decode = self._decode_order(display)
        next_ntp_at = 0.0
        send_clock = 0.0
        for order, (pts, frame_type) in enumerate(decode):
            complexity = self.content.step()
            qp = self.rate_control.qp
            bits = self.rate_control.encode_frame(frame_type, complexity)
            nbytes = max(64, int(round(bits / 8.0)))
            ntp: Optional[float] = None
            if pts >= next_ntp_at and frame_type != "B":
                ntp = self.wallclock_start + pts
                next_ntp_at = pts + self.settings.ntp_interval
            # A frame leaves the encoder once captured; B-frame reordering
            # means a B departs after the (later-captured) reference it
            # needs, so the send clock is the running max of capture times.
            send_clock = max(send_clock, pts)
            frame = EncodedFrame(
                index=self._frame_index,
                pts=pts + offset,
                dts=send_clock + offset,
                frame_type=frame_type,
                nbytes=nbytes,
                qp=qp,
                complexity=complexity,
                ntp_timestamp=None if ntp is None else ntp + offset,
            )
            self._frame_index += 1
            self._frames_encoded += 1
            self._bits_total += nbytes * 8
            self._qp_sum += qp
            yield frame

    def encode_all(self, duration_s: float) -> List[EncodedFrame]:
        """Materialize :meth:`generate` into a list."""
        return list(self.generate(duration_s))
