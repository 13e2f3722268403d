"""Replicated layout geometry: placement, inverses, and validation.

The load-bearing invariant is that replication *never moves the
primary copy*: with any factor, every block's primary placement — and
therefore every byte offset an unreplicated run reads — is exactly
what plain ``StripedLayout`` produces.  That is what makes the
``factor=1`` golden baseline hold.
"""

import pytest

from repro.layout.base import Layout
from repro.layout.registry import (
    LayoutSpec,
    register_layout,
    replicated_layout_names,
)
from repro.layout.striped import StripedLayout
from repro.replication.layouts import ReplicatedStripedLayout

BLOCK = 1000
COUNTS = [13, 8, 21]
NODES = 2
DISKS_PER_NODE = 4
DISK_COUNT = NODES * DISKS_PER_NODE


def striped():
    return StripedLayout(COUNTS, NODES, DISKS_PER_NODE, BLOCK)


def replicated(factor, step):
    return ReplicatedStripedLayout(
        COUNTS, NODES, DISKS_PER_NODE, BLOCK, factor, step
    )


def all_blocks():
    for video_id, count in enumerate(COUNTS):
        for block in range(count):
            yield video_id, block


class TestPrimaryPreservation:
    @pytest.mark.parametrize("name", ["mirrored", "chained"])
    def test_factor_one_is_plain_striping(self, name):
        base = striped()
        layout = LayoutSpec(name).build(
            COUNTS, NODES, DISKS_PER_NODE, BLOCK, None, replication_factor=1
        )
        for video_id, block in all_blocks():
            assert layout.locate(video_id, block) == base.locate(video_id, block)
        for disk in range(DISK_COUNT):
            assert layout.disk_used_bytes(disk) == base.disk_used_bytes(disk)
        assert layout.replica_count == 1
        for video_id, block in all_blocks():
            assert layout.replica_placements(video_id, block) == (
                base.locate(video_id, block),
            )

    @pytest.mark.parametrize("factor,step", [(2, 4), (2, 1), (4, 1), (4, 2)])
    def test_replication_never_moves_the_primary(self, factor, step):
        base = striped()
        layout = replicated(factor, step)
        for video_id, block in all_blocks():
            assert layout.locate(video_id, block) == base.locate(video_id, block)
            assert layout.replica_placements(video_id, block)[0] == base.locate(
                video_id, block
            )


class TestReplicaGeometry:
    def test_mirrored_partner_is_half_rotation(self):
        layout = replicated(2, DISK_COUNT // 2)
        for video_id, block in all_blocks():
            primary, mirror = layout.replica_placements(video_id, block)
            assert mirror.disk_global == (
                primary.disk_global + DISK_COUNT // 2
            ) % DISK_COUNT

    def test_chained_partner_is_successor(self):
        layout = replicated(2, 1)
        for video_id, block in all_blocks():
            primary, copy = layout.replica_placements(video_id, block)
            assert copy.disk_global == (primary.disk_global + 1) % DISK_COUNT

    def test_copies_of_one_block_on_distinct_disks(self):
        layout = replicated(4, 2)
        for video_id, block in all_blocks():
            placements = layout.replica_placements(video_id, block)
            assert len(placements) == 4
            assert len({p.disk_global for p in placements}) == 4

    def test_replica_placement_fields_consistent(self):
        layout = replicated(2, 1)
        for video_id, block in all_blocks():
            placements = layout.replica_placements(video_id, block)
            for placement in placements:
                node, disk_in_node = layout.split_disk_index(placement.disk_global)
                assert (placement.node, placement.disk_in_node) == (
                    node, disk_in_node
                )
            # Replica copies stay inside the accounted extent.  (The
            # primary copy inherits StripedLayout's historical remainder
            # accounting, pinned by the golden baseline, which can place
            # one block past its accounted fill.)
            for placement in placements[1:]:
                assert 0 <= placement.byte_offset
                assert placement.byte_offset + BLOCK <= layout.disk_used_bytes(
                    placement.disk_global
                )

    @pytest.mark.parametrize("factor,step", [(2, 4), (2, 1), (4, 1)])
    def test_replica_copies_never_overlap_on_disk(self, factor, step):
        """Replica extents occupy distinct block-sized slots per disk and
        never intrude into the region primary accounting reserved."""
        primary_fill = {
            disk: striped().disk_used_bytes(disk) for disk in range(DISK_COUNT)
        }
        layout = replicated(factor, step)
        extents = {disk: [] for disk in range(DISK_COUNT)}
        for video_id, block in all_blocks():
            for placement in layout.replica_placements(video_id, block)[1:]:
                extents[placement.disk_global].append(placement.byte_offset)
        for disk, offsets in extents.items():
            assert all(offset >= primary_fill[disk] for offset in offsets)
            assert len(offsets) == len(set(offsets))
            offsets.sort()
            for a, b in zip(offsets, offsets[1:]):
                assert b - a >= BLOCK

    def test_disk_used_grows_with_factor(self):
        base = striped()
        layout = replicated(2, 1)
        total_base = sum(base.disk_used_bytes(d) for d in range(DISK_COUNT))
        total_repl = sum(layout.disk_used_bytes(d) for d in range(DISK_COUNT))
        assert total_repl == 2 * total_base


class TestCopiesOnDisk:
    @pytest.mark.parametrize("factor,step", [(2, 4), (2, 1), (4, 2)])
    def test_inverse_of_replica_placements(self, factor, step):
        """copies_on_disk(d) lists exactly the copies whose placement
        lands on d — the rebuild walks precisely what the disk held."""
        layout = replicated(factor, step)
        expected = {disk: set() for disk in range(DISK_COUNT)}
        for video_id, block in all_blocks():
            placements = layout.replica_placements(video_id, block)
            for index, placement in enumerate(placements):
                expected[placement.disk_global].add((video_id, block, index))
        for disk in range(DISK_COUNT):
            listed = list(layout.copies_on_disk(disk))
            assert len(listed) == len(set(listed))
            assert set(listed) == expected[disk]

    def test_plain_layout_has_no_copy_walk(self):
        with pytest.raises(NotImplementedError):
            list(striped().copies_on_disk(0))


class TestValidation:
    def test_factor_above_disk_count_rejected(self):
        with pytest.raises(ValueError, match="disks available"):
            replicated(DISK_COUNT + 1, 1)

    def test_colliding_replica_step_rejected(self):
        # step = disk_count maps every copy back onto the primary disk.
        with pytest.raises(ValueError, match="same disk"):
            replicated(2, DISK_COUNT)

    def test_mirrored_needs_divisible_disk_count(self):
        with pytest.raises(ValueError, match="divisible"):
            LayoutSpec("mirrored").build(
                COUNTS, 1, 5, BLOCK, None, replication_factor=2
            )

    def test_single_copy_layout_rejects_factor(self):
        with pytest.raises(ValueError, match="single copy"):
            LayoutSpec("striped").build(
                COUNTS, NODES, DISKS_PER_NODE, BLOCK, None, replication_factor=2
            )

    def test_registry_reports_replication_support(self):
        assert "mirrored" in replicated_layout_names()
        assert "chained" in replicated_layout_names()
        assert "striped" not in replicated_layout_names()
        assert set(replicated_layout_names()) >= {"mirrored", "chained"}


class TestPluginBackCompat:
    def test_five_arg_factory_still_registers_and_builds(self, scratch_registries):
        """Pre-replication plugin factories keep working unchanged."""

        class Dummy(Layout):
            pass

        register_layout(
            "compat_probe",
            lambda counts, nodes, disks, block_size, rng: Dummy(
                nodes, disks, block_size
            ),
        )
        layout = LayoutSpec("compat_probe").build(
            COUNTS, NODES, DISKS_PER_NODE, BLOCK, None
        )
        assert isinstance(layout, Dummy)
        with pytest.raises(ValueError, match="single copy"):
            LayoutSpec("compat_probe").build(
                COUNTS, NODES, DISKS_PER_NODE, BLOCK, None,
                replication_factor=2,
            )
