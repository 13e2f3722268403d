"""Full striping of videos across every disk (paper Figure 3).

Stripe blocks alternate first between *nodes*, then between the disks at
each node: block 0 → node 0/disk 0, block 1 → node 1/disk 0, ...,
block ``nodes`` → node 0/disk 1, and so on.  Every ``nodes ×
disks_per_node``-th block of a video lands on the same disk, forming
that disk's contiguous *fragment* of the video.
"""

from __future__ import annotations

from repro.layout.base import Layout, Placement


class StripedLayout(Layout):
    def __init__(
        self,
        video_block_counts: list[int],
        nodes: int,
        disks_per_node: int,
        block_size: int,
    ) -> None:
        super().__init__(nodes, disks_per_node, block_size)
        self.video_block_counts = list(video_block_counts)
        row = self.disk_count
        # Per-disk fragment base offsets, per video, in video-id order.
        # fragment_blocks[v][d] = number of blocks of video v on disk d.
        self._fragment_base: list[list[int]] = []
        disk_fill = [0] * row
        for count in self.video_block_counts:
            self._fragment_base.append(list(disk_fill))
            full_rows, rem = divmod(count, row)
            for disk in range(row):
                blocks_here = full_rows + (1 if disk < rem else 0)
                disk_fill[disk] += blocks_here * block_size
        self._disk_used = disk_fill

    def locate(self, video_id: int, block: int) -> Placement:
        count = self.video_block_counts[video_id]
        if block < 0 or block >= count:
            raise ValueError(f"block {block} outside video {video_id} of {count} blocks")
        # Nodes alternate fastest, then disks within a node; the global
        # disk index used for fragment accounting is
        # ``node * disks_per_node + disk_in_node``.
        disk_count = self.disk_count
        nodes = self.nodes
        slot = block % disk_count
        node = slot % nodes
        disk_in_node = (slot // nodes) % self.disks_per_node
        disk_global = node * self.disks_per_node + disk_in_node
        offset = (
            self._fragment_base[video_id][disk_global]
            + (block // disk_count) * self.block_size
        )
        return Placement(node, disk_in_node, disk_global, offset)

    def next_block_on_same_disk(self, video_id: int, block: int) -> int | None:
        nxt = block + self.disk_count
        if nxt >= self.video_block_counts[video_id]:
            return None
        return nxt

    def disk_used_bytes(self, disk_global: int) -> int:
        return self._disk_used[disk_global]
