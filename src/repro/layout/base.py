"""Layout interface: mapping (video, stripe block) → physical placement."""

from __future__ import annotations

import typing


class Placement(typing.NamedTuple):
    """Physical location of one stripe block.

    A named tuple because one is built per block read and per prefetch
    candidate, and a tuple is cheap to build.
    """

    node: int
    disk_in_node: int
    disk_global: int
    byte_offset: int


class Layout:
    """Maps logical video blocks to disks and disk byte offsets.

    Implementations must keep each video's per-disk fragment contiguous
    (paper §5.2: "the portion of a video stored on one disk ... is laid
    out contiguously").
    """

    def __init__(self, nodes: int, disks_per_node: int, block_size: int) -> None:
        if nodes < 1 or disks_per_node < 1:
            raise ValueError("need at least one node and one disk per node")
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        self.nodes = nodes
        self.disks_per_node = disks_per_node
        self.disk_count = nodes * disks_per_node
        self.block_size = block_size

    def locate(self, video_id: int, block: int) -> Placement:
        """Physical placement of *block* of *video_id*."""
        raise NotImplementedError

    def next_block_on_same_disk(self, video_id: int, block: int) -> int | None:
        """The following block of the same video on the same disk.

        This is what the standard SPIFFI prefetcher fetches in response
        to a real reference ("a background request for the next stripe
        block at the same disk").  Returns None past end of video.
        """
        raise NotImplementedError

    def disk_used_bytes(self, disk_global: int) -> int:
        """Bytes of video data stored on a disk (drives geometry extent)."""
        raise NotImplementedError

    def split_disk_index(self, disk_global: int) -> typing.Tuple[int, int]:
        """Global disk index → (node, disk-in-node)."""
        return divmod(disk_global, self.disks_per_node)

    # --- replication interface (single-copy defaults) -------------------
    @property
    def replica_count(self) -> int:
        """Copies stored of every block (1 = unreplicated)."""
        return 1

    def replica_placements(self, video_id: int, block: int) -> typing.Tuple[Placement, ...]:
        """Every copy of *block*, primary first.

        Single-copy layouts return just :meth:`locate`; replicated
        layouts (see :mod:`repro.replication.layouts`) add the replica
        placements the failover router chooses between.
        """
        return (self.locate(video_id, block),)

    def copies_on_disk(
        self, disk_global: int
    ) -> typing.Iterator[typing.Tuple[int, int, int]]:
        """Block copies stored on one disk, as ``(video_id, block,
        replica_index)`` tuples — what a rebuild must re-create.  Only
        replicated layouts implement this."""
        raise NotImplementedError
