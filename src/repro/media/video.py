"""A video title: a frame sequence plus its memoised per-block-size schedules."""

from __future__ import annotations

import typing
from array import array
from bisect import bisect_left

import numpy as np

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.media.mpeg import FrameSequence


class BlockSchedule:
    """Precomputed display timing of one video at one block size.

    All terminal-side playback arithmetic reduces to table lookups here,
    built vectorised from the frame offsets once per block size:

    * ``first_frame[k]`` — first frame that needs block ``k`` (the block
      request's deadline is this frame's display time);
    * ``last_frame[k]`` — last frame that needs block ``k`` (the buffer
      slot holding block ``k`` can be freed once it has displayed);
    * ``displayable[k]`` — frames fully displayable once the first ``k``
      blocks have arrived, for ``k`` in ``0..block_count``;
    * ``edge_span[k]`` — blocks spanned by frame ``displayable[k]``, the
      frame at that delivery edge (1 once the whole video has arrived).

    Typed ``array('q')`` tables, not numpy arrays or lists: playback
    reads them one scalar at a time in the per-block hot path, where an
    array read returns a plain int several times faster than numpy
    scalar indexing, and each entry takes 8 bytes instead of a list's
    pointer plus a 32-byte int object.  They are all a title keeps of
    its frames: *offsets* (regenerated from *sequence* when not given)
    are dropped once the tables exist.  One schedule per (title, block
    size) is shared by every system in the process (see
    :attr:`FrameSequence.schedules`), so nothing may write the tables.
    """

    def __init__(
        self,
        sequence: "FrameSequence",
        block_size: int,
        offsets: np.ndarray | None = None,
    ) -> None:
        block_size = int(block_size)
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        if offsets is None:
            offsets = sequence.offsets()
        self.sequence = sequence
        self.block_size = block_size
        total = sequence.total_bytes
        self.block_count = sequence.block_count(block_size)
        # Block k covers bytes [k*block_size, (k+1)*block_size).  The
        # frame holding its first byte may straddle the previous block
        # boundary; it is still the first frame that needs block k.
        # Keys in the offsets' own dtype: mixed dtypes would make
        # searchsorted copy the offsets to int64 first.
        starts = np.arange(0, total, block_size, dtype=offsets.dtype)
        first = np.searchsorted(offsets, starts, side="right") - 1
        self.first_frame = array("q", first.astype(np.int64, copy=False).tobytes())
        # Built in int64: the last end may pass 2**32 before the clamp.
        ends = np.arange(block_size, total + block_size, block_size, dtype=np.int64)
        ends = (np.minimum(ends, total) - 1).astype(offsets.dtype)
        last = np.searchsorted(offsets, ends, side="right") - 1
        self.last_frame = array("q", last.astype(np.int64, copy=False).tobytes())
        # The prefix of k < block_count blocks ends at byte k*block_size,
        # inside frame first_frame[k]; all frames before it are whole.
        # The full video displays every frame.
        self.displayable = array("q", self.first_frame)
        self.displayable.append(sequence.frame_count)
        # Offsets may be uint32: widen before any subtraction.
        end = offsets[first + 1].astype(np.int64) - 1
        span = end // block_size - offsets[first].astype(np.int64) // block_size + 1
        self.edge_span = array("q", span.tobytes())
        self.edge_span.append(1)

    def block_of_frame(self, frame: int) -> int:
        """The block holding the first byte of frame *frame*.

        Equal to ``offsets[frame] // block_size``, read off the tables:
        the first block whose first frame is at or past *frame* starts
        inside *frame* only when the previous block ends before it;
        otherwise *frame* begins in the previous block.
        """
        first = self.first_frame
        k = bisect_left(first, frame)
        if (
            k < self.block_count
            and first[k] == frame
            and (k == 0 or self.last_frame[k - 1] < frame)
        ):
            return k
        return k - 1

    def block_bytes(self, block: int) -> int:
        """Actual byte length of block *block* (the last may be short)."""
        if block < 0 or block >= self.block_count:
            raise ValueError(f"block {block} outside 0..{self.block_count - 1}")
        start = block * self.block_size
        return min(self.block_size, self.sequence.total_bytes - start)

    def delivered_bytes(self, full_blocks: int) -> int:
        """Contiguous byte prefix represented by *full_blocks* blocks."""
        return min(full_blocks * self.block_size, self.sequence.total_bytes)


class Video:
    """One title in the library."""

    def __init__(self, video_id: int, sequence: FrameSequence) -> None:
        self.video_id = video_id
        self.sequence = sequence

    @property
    def total_bytes(self) -> int:
        return self.sequence.total_bytes

    @property
    def frame_count(self) -> int:
        return self.sequence.frame_count

    @property
    def fps(self) -> float:
        return self.sequence.fps

    @property
    def duration_s(self) -> float:
        return self.frame_count / self.fps

    def schedule(self, block_size: int) -> BlockSchedule:
        """The block schedule for *block_size* bytes, memoised on the sequence.

        The library's own block size was scheduled when the sequence was
        built; any other size regenerates the frame offsets once.
        """
        schedules = self.sequence.schedules
        schedule = schedules.get(block_size)
        if schedule is None:
            schedule = schedules[block_size] = BlockSchedule(self.sequence, block_size)
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Video(id={self.video_id}, bytes={self.total_bytes})"
