"""Cluster-level re-replication and node rejoin (the self-healing layer).

When the cluster :class:`~repro.replication.health.HealthMonitor`
reports a member DOWN, the manager starts one rebuild stream for that
member: every title the dead node hosted (and the
:class:`~repro.cluster.selfheal.RebuildPlan` found a destination for)
is copied block-by-block from a surviving replica holder onto its
planned spare slot — a real disk read on the source, a tagged transfer
over the cluster interconnect, and a real disk write on the
destination, so rebuild traffic visibly competes with serving traffic
on all three resources.  The stream paces itself with the same
:class:`~repro.replication.rebuild.BandwidthPacer` arithmetic as the
per-disk rebuild: moved bytes (read + write) per dead node capped at
``rebuild_bandwidth_bytes_per_s``, which makes the time to restored
replication degree predictable from the catalog size and the cap.

Once a title's last block lands, :meth:`CatalogPlacement.add_replica`
activates the copy — the router starts offering the destination on the
very next arrival, and a later outage of another host no longer loses
the title.  When every planned copy is live the cluster's replication
degree is restored; :attr:`ClusterRebuildManager.degree_restored_at`
records the instant.

**Rejoin** is the reverse path: a recovered member re-syncs the stale
fraction of its catalog (interconnect reads from peers, real writes to
its own disks, same pacer) *before* the cluster reverts its health
state — so the router keeps steering around it until it genuinely has
current content, and the re-entry cost scales with catalog size rather
than being a free instantaneous flip.
"""

from __future__ import annotations

import math
import typing

from repro.replication.rebuild import BandwidthPacer
from repro.telemetry.trace import (
    CLUSTER_REBUILD_END,
    CLUSTER_REBUILD_START,
    CLUSTER_REBUILD_TITLE,
    CLUSTER_REJOIN_END,
    CLUSTER_REJOIN_START,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.selfheal import RebuildPlan, SelfHealSpec
    from repro.cluster.system import SpiffiCluster
    from repro.telemetry.trace import TraceRecorder

#: Extra router load charged per rebuild/resync stream writing to a
#: node, so the front door steers sessions away from members busy
#: absorbing re-replication traffic.
REBUILD_LOAD_PENALTY = 2.0


class ClusterRebuildManager:
    """Drives catalog re-replication and rejoin for one cluster."""

    def __init__(
        self,
        cluster: "SpiffiCluster",
        spec: "SelfHealSpec",
        plan: "RebuildPlan",
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.plan = plan
        self.env = cluster.env
        self.block_size = cluster.config.node.stripe_bytes
        #: Planned copies not yet live; 0 means the replication degree
        #: is restored (as far as the plan could restore it).
        self.pending = plan.total_titles
        #: Simulated instant the last planned copy activated (None
        #: while any copy is outstanding, or when nothing was planned).
        self.degree_restored_at: float | None = None
        #: Rebuild/resync streams currently writing to each member
        #: (consulted by the router's load model via ``load``).
        self._dest_streams = [0] * len(cluster.members)
        #: Rebuild streams currently running (one per dead node).
        self.active = 0
        self.trace: "TraceRecorder | None" = None
        cluster.health.subscribe_outage(self._on_node_down)

    # ------------------------------------------------------------------
    # Router integration
    # ------------------------------------------------------------------
    def load(self, node: int) -> float:
        """Extra routing load on *node* from self-heal traffic."""
        return self._dest_streams[node] * REBUILD_LOAD_PENALTY

    def _record(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(kind, **fields)

    def reset_stats(self) -> None:
        """Progress is live state; its counters live in ``ClusterStats``."""

    # ------------------------------------------------------------------
    # Re-replication after an outage
    # ------------------------------------------------------------------
    def _on_node_down(self, node: int) -> None:
        work = self.plan.per_dead.get(node)
        if work:
            self.env.process(
                self._rebuild_node(node, work), name=f"cluster-rebuild-{node}"
            )

    def _drives_of(self, member):
        return [drive for srv in member.nodes for drive in srv.drives]

    def _locate(self, member, drives, local_id: int, block: int):
        """The drive and byte offset holding *block* of the
        member-local video *local_id*."""
        placement = member.layout.locate(local_id, block)
        return drives[placement.disk_global], placement.byte_offset

    def _pick_source(self, title: int, dead: int) -> int | None:
        """First currently-available host of *title*, hosts order."""
        cluster = self.cluster
        for node in cluster.placement.nodes_for(title):
            if node != dead and cluster.node_available(node):
                return node
        return None

    def _rebuild_node(self, dead: int, work):
        env = self.env
        cluster = self.cluster
        stats = cluster.stats
        started = env.now
        self.active += 1
        self._record(CLUSTER_REBUILD_START, node=dead, titles=len(work))
        pacer = BandwidthPacer(env, self.spec.rebuild_bandwidth_bytes_per_s)
        rebuilt = 0
        for item in work:
            dest_member = cluster.members[item.dest]
            dest_drives = self._drives_of(dest_member)
            schedule = dest_member.library[item.dest_local].schedule(
                self.block_size
            )
            self._dest_streams[item.dest] += 1
            copied = True
            for block in range(schedule.block_count):
                source = self._pick_source(item.title, dead)
                if source is None:
                    # The last live host died mid-copy; the partial copy
                    # is useless and the title dies with its hosts.
                    copied = False
                    break
                size = schedule.block_bytes(block)
                src_member = cluster.members[source]
                src_local = cluster.placement.local_id(item.title, source)
                # Replica content is seeded per member, so the source's
                # copy of the title can hold fewer blocks than the
                # destination slot being filled; clamp the read address
                # into the source video (the read is a cost model — the
                # bytes that land on disk are the destination copy's).
                src_blocks = src_member.library[src_local].schedule(
                    self.block_size
                ).block_count
                drive, offset = self._locate(
                    src_member, self._drives_of(src_member), src_local,
                    min(block, src_blocks - 1),
                )
                if not (yield from pacer.access(drive, offset, size)):
                    copied = False
                    break
                yield from cluster.interconnect.transfer(size, kind="rebuild")
                drive, offset = self._locate(
                    dest_member, dest_drives, item.dest_local, block
                )
                if not (yield from pacer.access(drive, offset, size)):
                    copied = False
                    break
                stats.rebuild_bytes += 2 * size
                stats.rebuild_bytes_out[source] += size
                stats.rebuild_bytes_in[item.dest] += size
                yield from pacer.charge(2 * size)
            self._dest_streams[item.dest] -= 1
            self.pending -= 1
            if copied:
                cluster.placement.add_replica(
                    item.title, item.dest, item.dest_local
                )
                stats.titles_rebuilt += 1
                rebuilt += 1
                self._record(
                    CLUSTER_REBUILD_TITLE,
                    node=dead, title=item.title, dest=item.dest,
                )
            else:
                stats.titles_unrecoverable += 1
            if self.pending == 0:
                self.degree_restored_at = env.now
        self.active -= 1
        self._record(
            CLUSTER_REBUILD_END,
            node=dead, titles=rebuilt, duration_s=env.now - started,
        )
        return None

    # ------------------------------------------------------------------
    # Rejoin: resync a recovered member before it re-enters routing
    # ------------------------------------------------------------------
    def begin_rejoin(self, index: int) -> None:
        """Start the resync process for recovered member *index*; the
        cluster completes the recovery when the resync lands."""
        self.env.process(self._rejoin(index), name=f"cluster-rejoin-{index}")

    def _rejoin(self, index: int):
        env = self.env
        cluster = self.cluster
        member = cluster.members[index]
        drives = self._drives_of(member)
        started = env.now
        fraction = self.spec.rejoin_resync_fraction
        self._record(CLUSTER_REJOIN_START, node=index)
        pacer = BandwidthPacer(env, self.spec.rebuild_bandwidth_bytes_per_s)
        self._dest_streams[index] += 1
        moved = 0
        # The stale fraction of every locally hosted title, front-first
        # (prefix blocks are what a re-entering member serves first).
        for local in range(cluster.placement.local_count(index)):
            schedule = member.library[local].schedule(self.block_size)
            stale_blocks = min(
                schedule.block_count,
                max(1, math.ceil(fraction * schedule.block_count)),
            )
            for block in range(stale_blocks):
                size = schedule.block_bytes(block)
                yield from cluster.interconnect.transfer(size, kind="resync")
                drive, offset = self._locate(member, drives, local, block)
                # A failed resync write still counts as moved.
                yield from pacer.access(drive, offset, size)
                moved += 2 * size
                yield from pacer.charge(2 * size)
        cluster.stats.rejoin_resyncs += 1
        cluster.stats.rejoin_resync_bytes += moved
        self._record(
            CLUSTER_REJOIN_END,
            node=index, bytes=moved, duration_s=env.now - started,
        )
        cluster._complete_recovery(index)
        return None
