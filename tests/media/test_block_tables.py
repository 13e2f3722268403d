"""The per-block playback tables of BlockSchedule, and what a title retains.

``displayable`` and ``edge_span`` replace per-wakeup byte arithmetic in
terminal playback: a binary search over the per-frame byte offsets at
the delivery edge, and the block span of the frame sitting on it.  The
reference below recomputes both the slow way, from a plain list of the
offsets, so the tables are pinned to the formulas they replace.
"""

import tracemalloc
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import KB, MB
from repro.media import BlockSchedule, FrameSequence, MpegProfile


def reference_tables(sequence, block_size):
    """(displayable, edge_span) for k = 0..block_count contiguous blocks."""
    cumulative = sequence.cumulative.tolist()
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
    schedule = BlockSchedule(sequence, block_size)
    displayable, edge_span = reference_tables(sequence, block_size)
    assert len(schedule.displayable) == len(schedule.edge_span) == schedule.block_count + 1
    assert schedule.displayable == displayable
    assert schedule.edge_span == edge_span
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
    assert_tables_match(FrameSequence(profile, duration, seed), block_size)


class TestEdgeCases:
    def test_blocks_smaller_than_the_largest_frame(self):
        sequence = FrameSequence(MpegProfile(), 20.0, 4)
        block_size = 4 * KB
        assert int(np.diff(sequence.cumulative).max()) > block_size
        schedule = assert_tables_match(sequence, block_size)
        assert max(schedule.edge_span) > 2

    def test_short_last_block(self):
        sequence = FrameSequence(MpegProfile(), 20.0, 4)
        block_size = 64 * KB
        assert sequence.total_bytes % block_size != 0
        assert_tables_match(sequence, block_size)

    def test_exact_multiple_has_no_short_block(self):
        # Deterministic sizes: 15 frames per GOP of exactly 250,000 bytes.
        sequence = FrameSequence(MpegProfile(deterministic_sizes=True), 10.0, 0)
        block_size = 250_000
        assert sequence.total_bytes % block_size == 0
        assert_tables_match(sequence, block_size)

    def test_single_frame_video(self):
        sequence = FrameSequence(MpegProfile(), 0.01, 5)
        assert sequence.frame_count == 1
        for block_size in (512, 64 * KB, sequence.total_bytes, 10 * MB):
            schedule = assert_tables_match(sequence, block_size)
            assert schedule.displayable[-1] == 1

    def test_one_hour_title_at_table1_stripe(self):
        assert_tables_match(FrameSequence(MpegProfile(), 3600.0, 11), 512 * KB)

    def test_displayable_shares_first_frame(self):
        sequence = FrameSequence(MpegProfile(), 10.0, 2)
        schedule = BlockSchedule(sequence, 64 * KB)
        assert schedule.displayable[:-1] == schedule.first_frame
        assert all(
            a is b for a, b in zip(schedule.displayable, schedule.first_frame)
        )
        assert schedule.displayable[-1] == sequence.frame_count


def test_one_hour_title_retains_under_two_megabytes():
    """A 1-hour title plus its Table-1 schedule keeps one int64 array of
    byte offsets and a few per-block lists: about 1.2 MB.  A per-frame
    Python int list (36 bytes per frame) alone would add 3.9 MB."""
    # Warm up first, so lazy imports (numpy.random) are not counted.
    BlockSchedule(FrameSequence(MpegProfile(), 1.0, 0), 512 * KB)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sequence = FrameSequence(MpegProfile(), 3600.0, 21)
        schedule = BlockSchedule(sequence, 512 * KB)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert schedule.block_count > 3000
    assert retained < 2 * MB, f"retained {retained / MB:.2f} MB"

