"""AAC-like audio encoder model.

Section 5.2: audio is AAC, 44,100 Hz, 16-bit, VBR at about either 32 or
64 kbps.  An AAC frame covers 1024 samples, so frames arrive every
1024/44100 ≈ 23.2 ms; VBR makes individual frame sizes fluctuate around
the nominal rate.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.media.frames import AudioFrame

SAMPLE_RATE_HZ = 44_100
SAMPLES_PER_FRAME = 1024
#: Seconds of audio per AAC frame.
FRAME_DURATION_S = SAMPLES_PER_FRAME / SAMPLE_RATE_HZ

#: The two nominal VBR operating points observed in the captures.
NOMINAL_BITRATES_BPS = (32_000.0, 64_000.0)


class AacEncoderModel:
    """Generate VBR audio frames at one of the two nominal bitrates."""

    def __init__(
        self,
        rng: random.Random,
        nominal_bps: float = 0.0,
        vbr_spread: float = 0.18,
    ) -> None:
        if nominal_bps == 0.0:
            nominal_bps = rng.choice(NOMINAL_BITRATES_BPS)
        if nominal_bps not in NOMINAL_BITRATES_BPS:
            raise ValueError(
                f"nominal bitrate must be one of {NOMINAL_BITRATES_BPS}, got {nominal_bps}"
            )
        if not 0 <= vbr_spread < 1:
            raise ValueError("vbr_spread must be in [0, 1)")
        self.nominal_bps = nominal_bps
        self.vbr_spread = vbr_spread
        self._rng = rng
        self._index = 0

    def generate(self, duration_s: float,
                 offset: float = 0.0) -> Iterator[AudioFrame]:
        """Yield the audio frames covering ``duration_s`` seconds, with
        ``pts`` shifted ``offset`` seconds into the media timeline."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        mean_bytes = self.nominal_bps * FRAME_DURATION_S / 8.0
        pts = 0.0
        while pts < duration_s:
            size = self._rng.gauss(mean_bytes, mean_bytes * self.vbr_spread)
            nbytes = max(8, int(round(size)))
            yield AudioFrame(index=self._index, pts=pts + offset, nbytes=nbytes)
            self._index += 1
            pts += FRAME_DURATION_S

    def encode_all(self, duration_s: float) -> List[AudioFrame]:
        """Materialize :meth:`generate` into a list."""
        return list(self.generate(duration_s))
