"""Tests for the MPEG frame model."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media import FRAME_B, FRAME_I, FRAME_P, GOP_PATTERN, FrameSequence, MpegProfile

BLOCK = 64 * 1024


class TestMpegProfile:
    def test_gop_frequency_ratio_is_1_4_10(self):
        pattern = np.asarray(GOP_PATTERN)
        assert (pattern == FRAME_I).sum() == 1
        assert (pattern == FRAME_P).sum() == 4
        assert (pattern == FRAME_B).sum() == 10

    def test_mean_frame_bytes_matches_bit_rate(self):
        profile = MpegProfile()
        # 4 Mbit/s at 30 fps.
        assert profile.mean_frame_bytes == pytest.approx(4e6 / 8 / 30)

    def test_type_means_honour_both_ratios(self):
        profile = MpegProfile()
        mean_i, mean_p, mean_b = profile.mean_type_bytes()
        assert mean_i / mean_b == pytest.approx(5.0)  # 10:2
        assert mean_p / mean_b == pytest.approx(2.5)  # 5:2
        pattern_mean = (1 * mean_i + 4 * mean_p + 10 * mean_b) / 15
        assert pattern_mean == pytest.approx(profile.mean_frame_bytes)


    @pytest.mark.parametrize("field", ["bit_rate_bps", "frames_per_second"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_bad_stream_rate_names_field_and_value(self, field, value):
        message = f"{field} must be positive and finite, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MpegProfile(**{field: value})


class TestFrameSequence:
    def make(self, duration=10.0, seed=0):
        return FrameSequence(MpegProfile(), duration, seed, BLOCK)

    def test_frame_count(self):
        seq = self.make(duration=10.0)
        assert seq.frame_count == 300

    def test_same_seed_same_sequence(self):
        a, b = self.make(seed=5), self.make(seed=5)
        assert np.array_equal(a.offsets(), b.offsets())

    def test_different_seed_different_sizes(self):
        assert not np.array_equal(self.make(seed=1).offsets(), self.make(seed=2).offsets())

    def test_total_bytes_near_bit_rate(self):
        seq = self.make(duration=600.0)
        expected = 4e6 / 8 * 600
        assert seq.total_bytes == pytest.approx(expected, rel=0.05)

    def test_cumulative_strictly_increasing(self):
        seq = self.make()
        offsets = seq.offsets()
        assert (np.diff(offsets) > 0).all()
        assert offsets[0] == 0
        assert offsets[-1] == seq.total_bytes

    def test_frame_of_byte_boundaries(self):
        seq = self.make()
        assert seq.frame_of_byte(0) == 0
        first = int(seq.offsets()[1])
        assert seq.frame_of_byte(first - 1) == 0
        assert seq.frame_of_byte(first) == 1
        assert seq.frame_of_byte(seq.total_bytes - 1) == seq.frame_count - 1

    def test_frame_of_byte_out_of_range(self):
        seq = self.make()
        with pytest.raises(ValueError):
            seq.frame_of_byte(-1)
        with pytest.raises(ValueError):
            seq.frame_of_byte(seq.total_bytes)

    def test_frames_displayable(self):
        seq = self.make()
        assert seq.frames_displayable(0) == 0
        first = int(seq.offsets()[1])
        assert seq.frames_displayable(first - 1) == 0
        assert seq.frames_displayable(first) == 1
        assert seq.frames_displayable(seq.total_bytes) == seq.frame_count

    def test_block_count(self):
        seq = self.make()
        block = 64 * 1024
        assert seq.block_count(block) == -(-seq.total_bytes // block)

    def test_first_frames_of_blocks_contains_block_start(self):
        seq = self.make()
        offsets = seq.offsets()
        schedule = seq.schedules[BLOCK]
        first, count = schedule.first_frame, schedule.block_count
        for k in (0, 1, count // 2, count - 1):
            frame = first[k]
            start = k * BLOCK
            assert offsets[frame] <= start < offsets[frame + 1]

    def test_last_frames_of_blocks_contains_block_end(self):
        seq = self.make()
        offsets = seq.offsets()
        schedule = seq.schedules[BLOCK]
        for k in (0, 1, schedule.block_count - 1):
            frame = schedule.last_frame_of(k)
            end = min((k + 1) * BLOCK, seq.total_bytes) - 1
            assert offsets[frame] <= end < offsets[frame + 1]

    def test_first_last_frames_ordered(self):
        schedule = self.make().schedules[BLOCK]
        first = np.asarray(schedule.first_frame[: schedule.block_count])
        last = np.asarray([schedule.last_frame_of(k) for k in range(schedule.block_count)])
        assert first.shape == last.shape == (schedule.block_count,)
        assert (first <= last).all()
        # Consecutive blocks overlap by at most one (straddling) frame.
        assert (first[1:] >= last[:-1]).all()

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            self.make(duration=0)

    @pytest.mark.parametrize("duration", [0.0, -5.0, math.nan, math.inf])
    def test_bad_duration_names_field_and_value(self, duration):
        message = f"duration_s must be positive and finite, got {duration!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.make(duration=duration)

    def test_retains_no_ndarray_and_offsets_are_uint32(self):
        seq = self.make()
        arrays = [name for name, value in vars(seq).items() if isinstance(value, np.ndarray)]
        assert arrays == []
        schedule = seq.schedules[BLOCK]
        assert not any(isinstance(value, np.ndarray) for value in vars(schedule).values())
        # Ten seconds is far below 4 GiB: 4 bytes per frame offset.
        assert seq.offsets().dtype == np.uint32
        assert type(seq.total_bytes) is int

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        block_kb=st.sampled_from([16, 64, 128, 512]),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_block_frame_maps_consistent(self, seed, block_kb):
        block = block_kb * 1024
        seq = FrameSequence(MpegProfile(), 5.0, seed, block)
        schedule = seq.schedules[block]
        count = seq.block_count(block)
        assert schedule.block_count == count
        # first_frame is displayable: one more entry, the frame count.
        assert len(schedule.first_frame) == count + 1
        assert schedule.first_frame[count] == seq.frame_count
        first = np.asarray(schedule.first_frame[:count])
        last = np.asarray([schedule.last_frame_of(k) for k in range(count)])
        assert len(first) == len(last) == count
        assert first[0] == 0
        assert last[-1] == seq.frame_count - 1
        assert (np.diff(first) >= 0).all()
        assert (np.diff(last) >= 0).all()


#: sha256 of the int64 bytes of the frame offsets per (profile,
#: duration, seed), recorded before frame sizes were rounded in place,
#: before offsets were stored as uint32 and before the sizes were drawn
#: in one fill; any change to how a title's frame stream is generated
#: shows here.
FRAME_STREAM_DIGESTS = [
    (MpegProfile(), 3600.0, 0, 108000,
     "d6c2e74782a9992028d030526bba2c0d1598b8ab1e59588e5b1daf6639436d63"),
    (MpegProfile(), 600.0, 17, 18000,
     "521da7ba07c930f4c787cc35aeedc0b0a7d410df3584cc5ffa8886b15116cd42"),
    (MpegProfile(), 10.0, 1_000_004, 300,
     "9f4fa8182ffcb2808ad84cfc91e4fe128d8116cf8e2610ab430e4eacb4db75e8"),
    (MpegProfile(deterministic_sizes=True), 600.0, 3, 18000,
     "d36a4771122441c5bbd06aac037c81762880b8bd33cdfd39b396cc14646daca7"),
    (MpegProfile(bit_rate_bps=1_500_000.0, frames_per_second=25.0), 120.0, 9, 3000,
     "c0723fd21a55df4ed6274bd0aee263a5b89adf0540c5fe2ae576455e90bc949b"),
    (MpegProfile(), 0.01, 5, 1,
     "ad85facf4cc1e612d838f6e2907554e48d6de97aaae646223c90ea1275ea8537"),
]


@pytest.mark.parametrize(
    "profile,duration,seed,frames,digest",
    FRAME_STREAM_DIGESTS,
    ids=[f"{case[1]:g}s-seed{case[2]}" for case in FRAME_STREAM_DIGESTS],
)
def test_frame_stream_golden(profile, duration, seed, frames, digest):
    seq = FrameSequence(profile, duration, seed, BLOCK)
    assert seq.frame_count == frames
    offsets = seq.offsets().astype(np.int64).tobytes()
    assert hashlib.sha256(offsets).hexdigest() == digest
