"""Tests for the striped and non-striped layouts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import NonStripedLayout, StripedLayout
from repro.sim import RandomSource

BLOCK = 1024


class TestStripedLayout:
    def make(self, counts=(20, 20), nodes=2, disks=2):
        return StripedLayout(list(counts), nodes, disks, BLOCK)

    def test_figure3_node_then_disk_rotation(self):
        """Paper Figure 3: block 0 → node0/disk0, block 1 → node1/disk0,
        block 2 → node0/disk1, block 3 → node1/disk1, then repeat."""
        layout = self.make()
        expected = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)]
        for block, (node, disk) in enumerate(expected):
            placement = layout.locate(0, block)
            assert (placement.node, placement.disk_in_node) == (node, disk)

    def test_fragments_are_contiguous(self):
        layout = self.make()
        # Blocks 0, 4, 8, ... of video 0 share node0/disk0 at sequential
        # offsets (the fragment).
        offsets = [layout.locate(0, b).byte_offset for b in (0, 4, 8, 12)]
        assert offsets == [0, BLOCK, 2 * BLOCK, 3 * BLOCK]

    def test_videos_packed_in_order(self):
        layout = self.make()
        first_of_video1 = layout.locate(1, 0)
        # Video 0 has 20 blocks over 4 disks → 5 per disk.
        assert first_of_video1.byte_offset == 5 * BLOCK

    def test_uneven_video_lengths(self):
        layout = StripedLayout([5], 2, 2, BLOCK)
        # 5 blocks over 4 disks: disk order of extras follows rotation.
        used = [layout.disk_used_bytes(d) for d in range(4)]
        assert sum(used) == 5 * BLOCK

    def test_next_block_on_same_disk(self):
        layout = self.make()
        assert layout.next_block_on_same_disk(0, 3) == 7
        assert layout.next_block_on_same_disk(0, 16) is None
        assert layout.next_block_on_same_disk(0, 19) is None

    def test_locate_bounds(self):
        layout = self.make()
        with pytest.raises(ValueError):
            layout.locate(0, -1)
        with pytest.raises(ValueError):
            layout.locate(0, 20)

    def test_no_two_blocks_share_a_disk_slot(self):
        layout = self.make(counts=(13, 7), nodes=2, disks=2)
        seen = set()
        for video, count in enumerate((13, 7)):
            for block in range(count):
                placement = layout.locate(video, block)
                slot = (placement.disk_global, placement.byte_offset)
                assert slot not in seen
                seen.add(slot)

    def test_disk_used_matches_locations(self):
        counts = (13, 7)
        layout = self.make(counts=counts, nodes=2, disks=2)
        per_disk = [0] * 4
        for video, count in enumerate(counts):
            for block in range(count):
                per_disk[layout.locate(video, block).disk_global] += BLOCK
        for disk in range(4):
            assert layout.disk_used_bytes(disk) == per_disk[disk]

    @pytest.mark.xfail(strict=True, reason="ROADMAP 4(d)")
    def test_remainder_blocks_land_on_the_accounted_disks(self):
        # 6 blocks over 2 nodes x 2 disks leave 2 remainder blocks.  The
        # fill accounting gives them to disks 0 and 1, but locate sends
        # block 5 to node 1 / disk 0, which is global disk 2.  Video 1's
        # fragment on disk 2 then starts under video 0's last block.
        counts = (6, 4)
        block = 512 * 1024
        layout = StripedLayout(list(counts), 2, 2, block)
        extents = {disk: [] for disk in range(4)}
        for video, count in enumerate(counts):
            for index in range(count):
                placement = layout.locate(video, index)
                extents[placement.disk_global].append(placement.byte_offset)
        for disk, offsets in extents.items():
            offsets.sort()
            assert all(b - a >= block for a, b in zip(offsets, offsets[1:]))
            assert offsets[-1] + block <= layout.disk_used_bytes(disk)

    @given(
        nodes=st.integers(min_value=1, max_value=4),
        disks=st.integers(min_value=1, max_value=4),
        counts=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_balanced_striping(self, nodes, disks, counts):
        """Every disk holds within one block of every other, per video."""
        layout = StripedLayout(counts, nodes, disks, BLOCK)
        for video, count in enumerate(counts):
            per_disk = [0] * (nodes * disks)
            for block in range(count):
                per_disk[layout.locate(video, block).disk_global] += 1
            assert max(per_disk) - min(per_disk) <= 1


class TestNonStripedLayout:
    def make(self, videos=8, nodes=2, disks=2, seed=3):
        counts = [10] * videos
        return NonStripedLayout(counts, nodes, disks, BLOCK, RandomSource(seed))

    def test_exactly_even_videos_per_disk(self):
        layout = self.make(videos=8)
        per_disk = [0] * 4
        for video in range(8):
            per_disk[layout.video_disk[video]] += 1
        assert per_disk == [2, 2, 2, 2]

    def test_all_blocks_on_one_disk_contiguous(self):
        layout = self.make()
        disk = layout.locate(3, 0).disk_global
        base = layout.locate(3, 0).byte_offset
        for block in range(10):
            placement = layout.locate(3, block)
            assert placement.disk_global == disk
            assert placement.byte_offset == base + block * BLOCK

    def test_next_block_on_same_disk_is_successor(self):
        layout = self.make()
        assert layout.next_block_on_same_disk(0, 0) == 1
        assert layout.next_block_on_same_disk(0, 9) is None

    def test_uneven_spread_rejected(self):
        with pytest.raises(ValueError):
            NonStripedLayout([10] * 7, 2, 2, BLOCK, RandomSource(1))

    def test_assignment_varies_with_seed(self):
        a = self.make(seed=1).video_disk
        b = self.make(seed=2).video_disk
        assert a != b

    def test_split_disk_index(self):
        layout = self.make(nodes=2, disks=2)
        assert layout.split_disk_index(0) == (0, 0)
        assert layout.split_disk_index(1) == (0, 1)
        assert layout.split_disk_index(2) == (1, 0)
        assert layout.split_disk_index(3) == (1, 1)
