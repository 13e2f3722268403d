"""Property tests: terminal playback arithmetic over random videos."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media import FrameSequence, MpegProfile


@given(
    seed=st.integers(0, 500),
    duration=st.floats(2.0, 20.0),
    block_kb=st.sampled_from([32, 64, 256]),
)
@settings(max_examples=25, deadline=None)
def test_property_block_schedule_covers_video_exactly(seed, duration, block_kb):
    sequence = FrameSequence(MpegProfile(), duration, seed, block_kb * 1024)
    schedule = sequence.schedules[block_kb * 1024]
    # Delivering all blocks makes every frame displayable.
    assert (
        sequence.frames_displayable(schedule.delivered_bytes(schedule.block_count))
        == sequence.frame_count
    )
    # Delivering none makes none displayable.
    assert sequence.frames_displayable(0) == 0


@given(
    seed=st.integers(0, 500),
    block_kb=st.sampled_from([32, 64]),
    prefix=st.integers(0, 50),
)
@settings(max_examples=40, deadline=None)
def test_property_displayable_monotone_in_delivery(seed, block_kb, prefix):
    sequence = FrameSequence(MpegProfile(), 5.0, seed, block_kb * 1024)
    schedule = sequence.schedules[block_kb * 1024]
    prefix = min(prefix, schedule.block_count)
    shorter = sequence.frames_displayable(schedule.delivered_bytes(prefix))
    if prefix < schedule.block_count:
        longer = sequence.frames_displayable(schedule.delivered_bytes(prefix + 1))
        assert longer >= shorter
    # A displayable frame's bytes are inside the delivered prefix.
    if shorter > 0:
        assert sequence.offsets()[shorter] <= schedule.delivered_bytes(prefix)


@given(seed=st.integers(0, 300), block_kb=st.sampled_from([32, 128]))
@settings(max_examples=25, deadline=None)
def test_property_first_frame_deadline_monotone(seed, block_kb):
    """Deadlines assigned in block order never decrease (the terminal
    sends the disk a nondecreasing deadline sequence)."""
    sequence = FrameSequence(MpegProfile(), 5.0, seed, block_kb * 1024)
    first = sequence.schedules[block_kb * 1024].first_frame
    assert all(first[i] <= first[i + 1] for i in range(len(first) - 1))


@given(seed=st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_property_frame_span_at_least_one_block_each(seed):
    """Every frame's bytes lie within consecutive blocks (span >= 1)."""
    block = 64 * 1024
    sequence = FrameSequence(MpegProfile(), 3.0, seed, block)
    offsets = sequence.offsets()
    for frame in range(0, sequence.frame_count, 37):
        first = int(offsets[frame]) // block
        last = (int(offsets[frame + 1]) - 1) // block
        assert last >= first
