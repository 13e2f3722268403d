"""A video title: a frame sequence plus its memoised per-block-size schedules."""

from __future__ import annotations

import typing
from array import array
from bisect import bisect_left

import numpy as np

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.media.mpeg import FrameSequence


def _table(values: np.ndarray, typecode: str) -> array:
    """*values* as an ``array(typecode)`` of exactly their length.

    Copied straight from the numpy buffer (no intermediate ``bytes``);
    ``array.frombytes`` would also over-allocate by a sixteenth.
    """
    table = array(typecode, [0]) * len(values)
    memoryview(table).cast("B")[:] = values.astype(typecode, copy=False).view(np.uint8)
    return table


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

    ``displayable[k]`` is ``first_frame[k]`` for every ``k`` below
    ``block_count``, so both names are bound to one table of
    ``block_count + 1`` entries whose last is ``frame_count``: read
    ``first_frame`` only below ``block_count``, never by its length.

    Typed ``array`` tables, not numpy arrays or lists: playback reads
    them one scalar at a time in the per-block hot path, where an array
    read returns a plain int several times faster than numpy scalar
    indexing.  Each takes the narrowest entry its values need: frame
    indices 4 bytes (8 from ``2**31`` frames on), block spans the
    narrowest unsigned type holding their maximum (1 byte at the
    Table-1 stripe; small blocks span more than 255).  They are all a
    title keeps of its frames: *offsets* (regenerated from *sequence*
    when not given) are dropped once the tables exist.  One schedule
    per (title, block size) is shared by every system in the process
    (see :attr:`FrameSequence.schedules`), so nothing may write the
    tables.
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
        # Block k covers bytes [k*block_size, (k+1)*block_size); the
        # prefix of k blocks ends at edges[k] = min(k*block_size, total).
        # Built in int64 (the last edge may pass 2**32 before the clamp),
        # then keyed in the offsets' own dtype: mixed dtypes would make
        # searchsorted copy the offsets to int64 first.
        edges = np.arange(0, total + block_size, block_size, dtype=np.int64)
        edges = np.minimum(edges, total).astype(offsets.dtype)
        # The frame holding a block's first byte may straddle the
        # previous block boundary; it is still the first frame that
        # needs the block, and every frame before it is whole once the
        # blocks before it have arrived.  The full video (the last
        # edge) displays every frame.
        displayable = np.searchsorted(offsets, edges, side="right") - 1
        last = np.searchsorted(offsets, edges[1:] - 1, side="right") - 1
        frame_code = "i" if sequence.frame_count < 2**31 else "q"
        self.first_frame = self.displayable = _table(displayable, frame_code)
        self.last_frame = _table(last, frame_code)
        # Offsets may be uint32: widen before any subtraction.
        first = displayable[:-1]
        end = offsets[first + 1].astype(np.int64) - 1
        span = end // block_size - offsets[first].astype(np.int64) // block_size + 1
        span = np.append(span, 1)
        widest = int(span.max())
        span_code = next(code for code in "BHIQ" if widest < 256 ** array(code).itemsize)
        self.edge_span = _table(span, span_code)

    def block_of_frame(self, frame: int) -> int:
        """The block holding the first byte of frame *frame*.

        Equal to ``offsets[frame] // block_size``, read off the tables:
        the first block whose first frame is at or past *frame* starts
        inside *frame* only when the previous block ends before it;
        otherwise *frame* begins in the previous block.
        """
        first = self.first_frame
        k = bisect_left(first, frame, 0, self.block_count)
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
