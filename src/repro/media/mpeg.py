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

from repro.media.video import BlockSchedule

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
#: at 4 Mbit/s is 1.8 GB).  Larger titles get 8-byte offsets.
_UINT32_LIMIT = 2**32


class FrameWorkspace:
    """Working arrays one library build reuses from title to title.

    Generating a one-hour title needs about 2 MB of per-frame scratch;
    taking it from buffers that are already paged in, instead of fresh
    allocations, saves the page faults.  Each buffer grows to the
    largest title seen and is freed with the workspace.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        """A *size*-element *dtype* array; its contents are undefined."""
        buffer = self._buffers.get(name)
        if buffer is None or buffer.dtype != dtype or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size]


class FrameSequence:
    """The immutable frame stream of one video, kept as per-block tables.

    Construction generates the per-frame byte offsets once, records
    :attr:`frame_count`, :attr:`total_bytes` and :attr:`fps`, builds the
    :class:`~repro.media.video.BlockSchedule` for *block_size* from the
    offsets and drops them: no per-frame array outlives ``__init__``.
    Terminals request stripe blocks, not frames, so the per-block
    tables answer every playback question (deadlines, slot freeing,
    display edges, the block a session starts in); a one-hour title at
    the Table-1 stripe keeps about 0.03 MB.

    :attr:`schedules` memoises the tables per block size; a schedule for
    another block size regenerates the offsets once.  Sequences are
    themselves memoised process-wide (see :mod:`repro.media.library`),
    so every library and every system built in one process shares one
    schedule per (title, block size); nothing may write them.
    """

    def __init__(
        self,
        profile: MpegProfile,
        duration_s: float,
        seed: int,
        block_size: int,
        workspace: FrameWorkspace | None = None,
    ) -> None:
        if not (duration_s > 0 and math.isfinite(duration_s)):
            raise ValueError(
                f"duration_s must be positive and finite, got {duration_s!r}"
            )
        self.profile = profile
        self.duration_s = float(duration_s)
        self.seed = seed
        self.frame_count = max(1, int(round(duration_s * profile.frames_per_second)))
        self.fps: float = profile.frames_per_second
        offsets = self._generate(workspace or FrameWorkspace())
        self.total_bytes: int = int(offsets[-1])
        #: Block size -> its :class:`~repro.media.video.BlockSchedule`;
        #: :meth:`repro.media.video.Video.schedule` adds other sizes.
        self.schedules: dict = {block_size: BlockSchedule(self, block_size, offsets)}

    def offsets(self) -> np.ndarray:
        """Byte offsets of every frame, regenerated on each call.

        ``offsets()[i]`` is the bytes of all frames before frame ``i``
        and ``offsets()[frame_count]`` the title's total: ``uint32`` (4
        bytes a frame) below 4 GiB, ``int64`` otherwise.  The sequence
        keeps no copy, so each call redraws the whole frame stream from
        the seed; playback reads the per-block tables instead.
        """
        return self._generate(FrameWorkspace())

    def _generate(self, workspace: FrameWorkspace) -> np.ndarray:
        """Draw the frame sizes and sum them into byte offsets.

        Bit-identical to one ``exponential(mean)`` call per frame type,
        in I, P, B order, each filling that type's frames in display
        order: one ``standard_exponential`` fill holds the three
        segments back to back, each is scaled in place by its type's
        mean, and each column of the GOP grid takes every k-th draw of
        its type's segment.  The returned array may be *workspace*'s.
        """
        profile, count = self.profile, self.frame_count
        pattern = profile.gop_pattern
        period = len(pattern)
        rows = -(-count // period)
        # Columns from ``tail`` on are missing from a short last GOP.
        tail = count - (rows - 1) * period
        means = profile.mean_type_bytes()
        grid = workspace.take("sizes", rows * period, np.float64).reshape(rows, period)
        if profile.deterministic_sizes:
            for column, frame_type in enumerate(pattern):
                grid[:, column] = means[frame_type]
        else:
            draws = workspace.take("draws", count, np.float64)
            np.random.default_rng(self.seed).standard_exponential(out=draws)
            start = 0
            for frame_type in (FRAME_I, FRAME_P, FRAME_B):
                columns = [c for c, t in enumerate(pattern) if t == frame_type]
                end = start + sum(rows - (c >= tail) for c in columns)
                segment = draws[start:end]
                segment *= means[frame_type]
                for rank, column in enumerate(columns):
                    grid[: rows - (column >= tail), column] = segment[rank :: len(columns)]
                start = end
        # Whole bytes, at least 1 per frame, rounded in place.
        sizes = grid.reshape(-1)[:count]
        np.rint(sizes, out=sizes)
        np.maximum(sizes, 1.0, out=sizes)
        # Whole numbers below 2**53 sum exactly in float64, so the total
        # picks the offset dtype before any offset exists.
        dtype = np.uint32 if sizes.sum() < _UINT32_LIMIT else np.int64
        offsets = workspace.take("offsets", count + 1, dtype)
        offsets[0] = 0
        offsets[1:] = sizes
        np.cumsum(offsets[1:], out=offsets[1:])
        return offsets

    def frame_of_byte(self, offset: int) -> int:
        """Index of the frame containing byte *offset* (0-based).

        Regenerates the offsets (see :meth:`offsets`); no run path calls it.
        """
        if offset < 0 or offset >= self.total_bytes:
            raise ValueError(f"byte offset {offset} outside video of {self.total_bytes}")
        return bisect_right(memoryview(self.offsets()), offset) - 1

    def frames_displayable(self, delivered_bytes: int) -> int:
        """How many leading frames are fully displayable.

        A frame can only be decompressed and shown once *all* its bytes
        have arrived; returns the count of complete leading frames given
        a contiguous delivered prefix of *delivered_bytes*.  Playback
        reads the per-block :attr:`BlockSchedule.displayable` table
        instead; this general form for any byte count regenerates the
        offsets (see :meth:`offsets`).
        """
        return bisect_right(memoryview(self.offsets()), delivered_bytes) - 1

    def block_count(self, block_size: int) -> int:
        return -(-self.total_bytes // block_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameSequence(frames={self.frame_count}, "
            f"bytes={self.total_bytes}, seed={self.seed})"
        )
