"""MPEG-I compressed-video frame model.

The paper simulates the display of individual MPEG frames:

* three frame types — intra (I), predicted (P), bidirectional (B);
* I:P:B frame *frequency* ratio 1:4:10 (the classic 15-frame group of
  pictures ``I B B P B B P B B P B B P B B``);
* I:P:B frame *size* ratio 10:5:2;
* frame sizes exponentially distributed around the per-type mean;
* overall bit rate 4 Mbit/s at the NTSC rate of 30 frames/s;
* each video's frame sequence is generated once and repeats identically
  on every play.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right

import numpy as np

#: Frame-type codes used in a GOP pattern.
FRAME_I = 0
FRAME_P = 1
FRAME_B = 2

#: The 15-frame group of pictures realising the 1:4:10 frequency ratio.
GOP_PATTERN: tuple[int, ...] = (
    FRAME_I, FRAME_B, FRAME_B,
    FRAME_P, FRAME_B, FRAME_B,
    FRAME_P, FRAME_B, FRAME_B,
    FRAME_P, FRAME_B, FRAME_B,
    FRAME_P, FRAME_B, FRAME_B,
)

#: I:P:B frame-size ratio from the paper's Table 1.
SIZE_RATIO: tuple[float, float, float] = (10.0, 5.0, 2.0)


@dataclasses.dataclass(frozen=True)
class MpegProfile:
    """Static parameters of the simulated MPEG streams."""

    bit_rate_bps: float = 4_000_000.0
    frames_per_second: float = 30.0
    gop_pattern: tuple[int, ...] = GOP_PATTERN
    size_ratio: tuple[float, float, float] = SIZE_RATIO
    #: Ablation switch: use exact per-type mean sizes instead of the
    #: exponentially distributed sizes observed in real MPEG streams.
    deterministic_sizes: bool = False

    def __post_init__(self) -> None:
        for name in ("bit_rate_bps", "frames_per_second"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def mean_frame_bytes(self) -> float:
        """Average frame size implied by the bit rate and frame rate."""
        return self.bit_rate_bps / 8.0 / self.frames_per_second

    def mean_type_bytes(self) -> tuple[float, float, float]:
        """Mean size per frame type honouring both Table 1 ratios.

        With frequencies ``f_t`` from the GOP pattern and size ratio
        ``r_t``, per-type means are ``r_t * unit`` where ``unit`` makes
        the pattern average equal :attr:`mean_frame_bytes`.
        """
        pattern = np.asarray(self.gop_pattern)
        freqs = [int(np.sum(pattern == t)) for t in (FRAME_I, FRAME_P, FRAME_B)]
        ratio_mass = sum(f * r for f, r in zip(freqs, self.size_ratio))
        unit = self.mean_frame_bytes * len(self.gop_pattern) / ratio_mass
        return tuple(r * unit for r in self.size_ratio)


#: Byte offsets fit 4 bytes per frame below this total (4 GiB; one hour
#: at 4 Mbit/s is 1.8 GB).  Larger titles keep 8-byte offsets.
_UINT32_LIMIT = 2**32


class FrameSequence:
    """The immutable frame schedule of one video.

    The only per-frame data kept is :attr:`cumulative`, one numpy array
    of byte offsets: ``uint32`` (4 bytes per frame) when the title is
    under 4 GiB, ``int64`` otherwise.  Playback never reads it per
    frame: :class:`~repro.media.video.BlockSchedule` reduces it,
    vectorised, to per-block lookup tables, so a one-hour title keeps
    about 0.43 MB of frame data.

    :attr:`schedules` memoises those tables per block size.  Sequences
    are themselves memoised process-wide (see :mod:`repro.media.library`),
    so every library and every system built in one process shares one
    schedule per (title, block size); nothing may write them.
    """

    def __init__(self, profile: MpegProfile, duration_s: float, seed: int) -> None:
        if not (duration_s > 0 and math.isfinite(duration_s)):
            raise ValueError(
                f"duration_s must be positive and finite, got {duration_s!r}"
            )
        self.profile = profile
        self.duration_s = float(duration_s)
        self.seed = seed
        self.frame_count = max(1, int(round(duration_s * profile.frames_per_second)))

        pattern = np.asarray(profile.gop_pattern, dtype=np.int8)
        repeats = -(-self.frame_count // len(pattern))
        types = np.tile(pattern, repeats)[: self.frame_count]

        rng = np.random.default_rng(seed)
        means = profile.mean_type_bytes()
        sizes = np.empty(self.frame_count, dtype=np.float64)
        for frame_type, mean in zip((FRAME_I, FRAME_P, FRAME_B), means):
            mask = types == frame_type
            if profile.deterministic_sizes:
                sizes[mask] = mean
            else:
                sizes[mask] = rng.exponential(mean, size=int(mask.sum()))
        # Whole bytes, at least 1 per frame, rounded in place.
        np.rint(sizes, out=sizes)
        np.maximum(sizes, 1.0, out=sizes)

        # Whole numbers below 2**53 sum exactly in float64, so the total
        # picks the offset dtype before any offset exists.
        dtype = np.uint32 if sizes.sum() < _UINT32_LIMIT else np.int64
        #: ``cumulative[i]`` = bytes of all frames before frame ``i``;
        #: ``cumulative[frame_count]`` = total bytes of the video.
        self.cumulative = np.zeros(self.frame_count + 1, dtype=dtype)
        np.cumsum(sizes, dtype=dtype, out=self.cumulative[1:])
        self.total_bytes: int = int(self.cumulative[-1])
        self.fps: float = profile.frames_per_second
        #: Block size -> its :class:`~repro.media.video.BlockSchedule`,
        #: filled by :meth:`repro.media.video.Video.schedule`.
        self.schedules: dict = {}

    def frame_of_byte(self, offset: int) -> int:
        """Index of the frame containing byte *offset* (0-based)."""
        if offset < 0 or offset >= self.total_bytes:
            raise ValueError(f"byte offset {offset} outside video of {self.total_bytes}")
        return bisect_right(memoryview(self.cumulative), offset) - 1

    def frames_displayable(self, delivered_bytes: int) -> int:
        """How many leading frames are fully displayable.

        A frame can only be decompressed and shown once *all* its bytes
        have arrived; returns the count of complete leading frames given
        a contiguous delivered prefix of *delivered_bytes*.  Playback
        reads the per-block :attr:`BlockSchedule.displayable` table
        instead; this is the general form for any byte count.
        """
        return bisect_right(memoryview(self.cumulative), delivered_bytes) - 1

    def first_frames_of_blocks(self, block_size: int) -> np.ndarray:
        """For each block, the first frame whose display needs the block.

        Block ``k`` covers bytes ``[k*block_size, (k+1)*block_size)``.
        The frame containing the block's first byte may straddle the
        previous block boundary; it is still the first frame that cannot
        be displayed without block ``k``.
        """
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        # Keys in the offsets' own dtype: mixed dtypes would make
        # searchsorted copy the offsets to int64 first.
        starts = np.arange(0, self.total_bytes, block_size, dtype=self.cumulative.dtype)
        return np.searchsorted(self.cumulative, starts, side="right") - 1

    def last_frames_of_blocks(self, block_size: int) -> np.ndarray:
        """For each block, the last frame whose display needs the block."""
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        total = self.total_bytes
        ends = np.arange(block_size, total + block_size, block_size, dtype=np.int64)
        # Built in int64: the last end may pass 2**32 before the clamp.
        ends = (np.minimum(ends, total) - 1).astype(self.cumulative.dtype)
        return np.searchsorted(self.cumulative, ends, side="right") - 1

    def block_count(self, block_size: int) -> int:
        return -(-self.total_bytes // block_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameSequence(frames={self.frame_count}, "
            f"bytes={self.total_bytes}, seed={self.seed})"
        )
