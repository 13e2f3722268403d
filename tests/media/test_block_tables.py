"""The per-block playback tables of BlockSchedule, and what a title retains.

``displayable`` and ``edge_span`` replace per-wakeup byte arithmetic in
terminal playback: a binary search over the per-frame byte offsets at
the delivery edge, and the block span of the frame sitting on it.
``block_of_frame`` and the proxy's prefix depth replace reading the
offsets themselves, which no title keeps.  The references below
recompute each the slow way, from a plain list of the offsets, so the
tables are pinned to the formulas they replace.
"""

import tracemalloc
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import KB, MB
from repro.media import BlockSchedule, FrameSequence, MpegProfile
from repro.proxy.runtime import prefix_block_count


def reference_tables(sequence, block_size):
    """(displayable, edge_span) for k = 0..block_count contiguous blocks."""
    cumulative = sequence.offsets().tolist()
    total = cumulative[-1]
    block_count = -(-total // block_size)
    displayable, edge_span = [], []
    for k in range(block_count + 1):
        edge = bisect_right(cumulative, min(k * block_size, total)) - 1
        displayable.append(edge)
        if edge >= sequence.frame_count:
            edge_span.append(1)
        else:
            first_block = cumulative[edge] // block_size
            last_block = (cumulative[edge + 1] - 1) // block_size
            edge_span.append(last_block - first_block + 1)
    return displayable, edge_span


def assert_tables_match(sequence, block_size):
    """Check the schedule built with *sequence* (from the offsets it
    generated) or, for another block size, built from regenerated ones."""
    schedule = sequence.schedules.get(block_size) or BlockSchedule(sequence, block_size)
    displayable, edge_span = reference_tables(sequence, block_size)
    assert len(schedule.displayable) == len(schedule.edge_span) == schedule.block_count + 1
    assert list(schedule.displayable) == displayable
    assert list(schedule.edge_span) == edge_span
    assert all(type(value) is int for value in schedule.displayable)
    assert all(type(value) is int for value in schedule.edge_span)
    return schedule


@given(
    duration=st.floats(0.01, 30.0),
    seed=st.integers(0, 10_000),
    deterministic=st.booleans(),
    block_size=st.sampled_from([512, 4 * KB, 64 * KB, 512 * KB, 3 * MB]),
)
@settings(max_examples=60, deadline=None)
def test_tables_match_reference(duration, seed, deterministic, block_size):
    profile = MpegProfile(deterministic_sizes=deterministic)
    assert_tables_match(FrameSequence(profile, duration, seed, block_size), block_size)


class TestEdgeCases:
    def test_blocks_smaller_than_the_largest_frame(self):
        block_size = 4 * KB
        sequence = FrameSequence(MpegProfile(), 20.0, 4, block_size)
        assert int(np.diff(sequence.offsets()).max()) > block_size
        schedule = assert_tables_match(sequence, block_size)
        assert max(schedule.edge_span) > 2

    def test_short_last_block(self):
        block_size = 64 * KB
        sequence = FrameSequence(MpegProfile(), 20.0, 4, block_size)
        assert sequence.total_bytes % block_size != 0
        assert_tables_match(sequence, block_size)

    def test_exact_multiple_has_no_short_block(self):
        # Deterministic sizes: 15 frames per GOP of exactly 250,000 bytes.
        block_size = 250_000
        sequence = FrameSequence(MpegProfile(deterministic_sizes=True), 10.0, 0, block_size)
        assert sequence.total_bytes % block_size == 0
        assert_tables_match(sequence, block_size)

    def test_single_frame_video(self):
        sequence = FrameSequence(MpegProfile(), 0.01, 5, 512)
        assert sequence.frame_count == 1
        for block_size in (512, 64 * KB, sequence.total_bytes, 10 * MB):
            schedule = assert_tables_match(sequence, block_size)
            assert schedule.displayable[-1] == 1

    def test_one_hour_title_at_table1_stripe(self):
        assert_tables_match(FrameSequence(MpegProfile(), 3600.0, 11, 512 * KB), 512 * KB)

    def test_displayable_shares_first_frame(self):
        sequence = FrameSequence(MpegProfile(), 10.0, 2, 64 * KB)
        schedule = sequence.schedules[64 * KB]
        # One table: first_frame's entries below block_count, then the
        # whole video's frame count as displayable's last entry.
        assert schedule.displayable is schedule.first_frame
        assert len(schedule.displayable) == schedule.block_count + 1
        offsets = sequence.offsets().tolist()
        assert list(schedule.first_frame[: schedule.block_count]) == [
            bisect_right(offsets, start) - 1
            for start in range(0, sequence.total_bytes, 64 * KB)
        ]
        assert schedule.displayable[-1] == sequence.frame_count
        assert schedule.displayable.typecode == schedule.last_frame.typecode == "i"
        assert schedule.displayable.itemsize == schedule.last_frame.itemsize == 4

    @pytest.mark.parametrize("block_size,typecode", [(512 * KB, "B"), (512, "H")])
    def test_edge_span_takes_the_narrowest_type_of_its_widest_span(
        self, block_size, typecode
    ):
        # 512-byte blocks: a large frame spans more than 255 of them.
        sequence = FrameSequence(MpegProfile(), 10.0, 0, block_size)
        schedule = assert_tables_match(sequence, block_size)
        widest = max(schedule.edge_span)
        assert schedule.edge_span.typecode == typecode
        assert widest < 256 ** schedule.edge_span.itemsize
        assert widest >= 256 ** schedule.edge_span.itemsize // 256


class TestStartBlock:
    """Where a session or seek starts, and how deep a proxy prefix
    reaches, read off the tables for every frame of a title.

    Deterministic GOPs put frames exactly on block edges at 250,000
    (one GOP a block) and 10,000 bytes (every frame a whole number of
    blocks, the I frame five), the case where the first frame of a
    block is also the first frame of the next."""

    CASES = [
        (deterministic, block_size)
        for deterministic in (False, True)
        for block_size in (10_000, 4 * KB, 64 * KB, 250_000, 512 * KB)
    ]

    @pytest.mark.parametrize(
        "deterministic,block_size",
        CASES,
        ids=[f"{'det' if d else 'exp'}-{b}" for d, b in CASES],
    )
    def test_every_frame_matches_the_offsets(self, deterministic, block_size):
        profile = MpegProfile(deterministic_sizes=deterministic)
        sequence = FrameSequence(profile, 20.0, 8, block_size)
        schedule = sequence.schedules[block_size]
        offsets = sequence.offsets().tolist()
        aligned = 0
        for frame in range(sequence.frame_count):
            assert schedule.block_of_frame(frame) == offsets[frame] // block_size, frame
            aligned += offsets[frame] % block_size == 0
        if deterministic and block_size in (10_000, 250_000):
            assert aligned >= sequence.frame_count // 15
        for frames in range(sequence.frame_count + 1):
            # Half a frame on, so the seconds round back to *frames*.
            prefix_s = (frames + 0.5) / sequence.fps
            assert min(sequence.frame_count, int(prefix_s * sequence.fps)) == frames
            expected = min(schedule.block_count, -(-offsets[frames] // block_size))
            assert prefix_block_count(schedule, prefix_s) == expected, frames


def reference_offsets(profile, frame_count):
    """Deterministic-size byte offsets, summed in Python ints."""
    sizes_by_type = [max(1, round(mean)) for mean in profile.mean_type_bytes()]
    pattern = profile.gop_pattern
    sizes = [sizes_by_type[pattern[i % len(pattern)]] for i in range(frame_count)]
    return [0, *accumulate(sizes)]


class TestOffsetDtype:
    """4-byte offsets below 4 GiB, 8-byte offsets from 4 GiB on, same answers."""

    #: Deterministic 60 s titles 16 bytes under and 104 bytes over 2**32.
    UNDER = MpegProfile(bit_rate_bps=572_662_200.0, deterministic_sizes=True)
    OVER = MpegProfile(bit_rate_bps=572_662_300.0, deterministic_sizes=True)

    def test_pair_straddles_the_limit(self):
        under = FrameSequence(self.UNDER, 60.0, 0, 512 * KB)
        over = FrameSequence(self.OVER, 60.0, 0, 512 * KB)
        assert under.total_bytes == 2**32 - 16
        assert over.total_bytes == 2**32 + 104
        assert under.offsets().dtype == np.uint32
        assert over.offsets().dtype == np.int64
        assert type(under.total_bytes) is type(over.total_bytes) is int

    @pytest.mark.parametrize("which", ["UNDER", "OVER"])
    def test_offsets_tables_and_lookups_match_reference(self, which):
        profile = getattr(self, which)
        block_size = 512 * KB
        sequence = FrameSequence(profile, 60.0, 0, block_size)
        offsets = reference_offsets(profile, sequence.frame_count)
        assert sequence.offsets().tolist() == offsets
        total = offsets[-1]
        schedule = assert_tables_match(sequence, block_size)
        starts = range(0, total, block_size)
        assert list(schedule.first_frame[: schedule.block_count]) == [
            bisect_right(offsets, start) - 1 for start in starts
        ]
        assert list(schedule.last_frame) == [
            bisect_right(offsets, min(start + block_size, total) - 1) - 1
            for start in starts
        ]
        for byte in (0, 1, 2**31, 2**32 - 17, 2**32 - 16, 2**32 - 1, 2**32, total - 1):
            if byte < total:
                assert sequence.frame_of_byte(byte) == bisect_right(offsets, byte) - 1
            assert sequence.frames_displayable(byte) == bisect_right(offsets, byte) - 1
        for prefix_s in (0.5, 10.0, 59.9, 60.0, 120.0):
            frames = min(sequence.frame_count, int(prefix_s * sequence.fps))
            expected = min(schedule.block_count, -(-offsets[frames] // block_size))
            assert prefix_block_count(schedule, prefix_s) == expected
        for frame in range(0, sequence.frame_count, 97):
            assert schedule.block_of_frame(frame) == offsets[frame] // block_size

    def test_title_of_four_gib_or_more_keeps_int64(self):
        sequence = FrameSequence(MpegProfile(bit_rate_bps=12e6), 3600.0, 0, 512 * KB)
        assert sequence.total_bytes >= 2**32
        offsets = sequence.offsets()
        assert offsets.dtype == np.int64
        assert int(offsets[-1]) == sequence.total_bytes
        assert (np.diff(offsets) > 0).all()
        assert_tables_match(sequence, 512 * KB)


def test_one_hour_title_retains_under_a_twentieth_of_a_megabyte():
    """A 1-hour title at the Table-1 stripe keeps three typed per-block
    tables (4-byte frame indices shared by first_frame and displayable
    and by last_frame, 1-byte edge spans) and no per-frame data: about
    0.03 MB.  Four 8-byte tables took 0.11 MB; also keeping its uint32
    byte offsets 0.53 MB; int64 offsets and per-block int lists
    1.14 MB; a per-frame Python int list (36 bytes per frame) alone
    would add 3.9 MB."""
    # Warm up first, so lazy imports (numpy.random) are not counted.
    FrameSequence(MpegProfile(), 1.0, 0, 512 * KB)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sequence = FrameSequence(MpegProfile(), 3600.0, 21, 512 * KB)
        schedule = sequence.schedules[512 * KB]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert schedule.block_count > 3000
    assert retained < 0.05 * MB, f"retained {retained / MB:.3f} MB"
