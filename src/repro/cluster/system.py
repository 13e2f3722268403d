"""Assembly and execution of a multi-node SPIFFI cluster.

``SpiffiCluster`` builds N :class:`~repro.core.node.SpiffiNode` members
onto **one** shared simulation environment, joined by a dedicated
interconnect :class:`~repro.netsim.bus.NetworkBus` and fronted by the
placement/routing layers of this package.  It is a
:class:`~repro.core.door.FrontDoor`, like a standalone server: the base
owns the run sequence, the component registry (its own plus every
member's) and tracing, and the cluster overrides only what N members
behind a router change — routing, outage events, spill and the
interconnect cost of placing a session.  Cross-node health is
tracked by reusing :class:`repro.replication.health.HealthMonitor` —
it is generic over indices, so the same SUSPECT/DOWN ranking that
routes replica reads around sick disks routes sessions around sick
members.

Node outages are scripted on ``config.faults`` (``fail_node_ids``,
``fail_nodes_at_s``, ``node_recover_after_s``, and an optional
``fail_node_stagger_s`` spacing consecutive failures).  Failing a
member marks it DOWN in the health monitor (so the router stops
choosing it) and fires its outage event (so every session queued on or
streaming from it wakes and fails over); recovery reverts the health
state and arms a fresh outage event.  The member's simulation processes
are *not* killed — like a real front end, the cluster simply stops
sending work to a dead node and abandons what it was doing there.

With ``config.self_heal`` enabled the cluster additionally *heals*:
a :class:`~repro.cluster.rebuild.ClusterRebuildManager` re-replicates a
dead member's titles onto survivors (into spare slots provisioned from
the build-time :class:`~repro.cluster.selfheal.RebuildPlan`), recovered
members re-sync their stale catalog before re-entering routing, and the
front door spills arrivals away from full queues instead of balking.

Metrics come from :func:`repro.core.metrics.collect_metrics`, the one
collector a standalone server (its own sole member) uses too; the
cluster adds only interconnect traffic, its self-healing counters and
the diagnostic ``per_node`` rows.

The degenerate cluster — one node, closed workload, ``partitioned``
placement — builds exactly the standalone system on the same seed and
is bit-identical to it (pinned by the cluster golden-digest test):
constructing the bus, health monitor, router, and outage events
schedules no simulation events and draws no randomness, and its door
reads the member's own QoS monitor.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

from repro.cluster.config import ClusterConfig
from repro.cluster.rebuild import ClusterRebuildManager
from repro.cluster.selfheal import RebuildPlan
from repro.core.door import FrontDoor
from repro.core.metrics import RunMetrics
from repro.core.node import SpiffiNode
from repro.faults.schedule import FaultEvent
from repro.faults.spec import DISK_OUTAGE
from repro.netsim.bus import NetworkBus
from repro.replication.health import HealthMonitor
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.rng import RandomSource
from repro.workload.qos import QosMonitor


class ClusterStats:
    """Cluster-level counters over the measurement window."""

    def __init__(self, nodes: int = 1) -> None:
        self._nodes = nodes
        self.reset_stats()

    def reset_stats(self) -> None:
        #: Node outages applied (scripted fault driver).
        self.node_outages = 0
        #: Nodes brought back by the recovery script.
        self.node_recoveries = 0
        #: Self-healing: titles re-replicated onto survivors.
        self.titles_rebuilt = 0
        #: Planned copies abandoned because every source died first.
        self.titles_unrecoverable = 0
        #: Moved bytes (read + write) of completed rebuild copies.
        self.rebuild_bytes = 0
        #: Recovered members that completed a catalog resync.
        self.rejoin_resyncs = 0
        #: Moved bytes (transfer + write) of rejoin resyncs.
        self.rejoin_resync_bytes = 0
        #: Per-member rebuild traffic: bytes written to each node as a
        #: re-replication destination / read from it as a source.
        self.rebuild_bytes_in = [0] * self._nodes
        self.rebuild_bytes_out = [0] * self._nodes


class SpiffiCluster(FrontDoor):
    """N SPIFFI nodes, one environment, one front door."""

    def __init__(self, config: ClusterConfig) -> None:
        super().__init__(config, Environment())
        base = config.node
        self.placement = config.placement.build(config.nodes, base.video_count)
        self.catalog_size = self.placement.catalog_size
        # Scripted outages + rebuild: plan the re-replication at build
        # time so every destination member is born with the spare
        # library/layout slots its future copies will land in.  With
        # self-healing disabled (the default) no plan exists, no spares
        # are allocated, and member construction is untouched.
        self.heal_plan: RebuildPlan | None = None
        spares = [0] * config.nodes
        if config.self_heal.rebuild and config.faults.node_outages_enabled:
            self.heal_plan = RebuildPlan(
                self.placement, config.faults.fail_node_ids
            )
            spares = self.heal_plan.spares
        # The 1-node closed cluster must be the standalone system: same
        # member seed, full local catalog, its own terminal population.
        closed = not config.workload.enabled
        self.members = [
            SpiffiNode(
                base.replace(seed=config.seed + index),
                env=self.env,
                local_videos=self.placement.local_count(index) + spares[index],
                closed_terminals=closed,
            )
            for index in range(config.nodes)
        ]
        #: Cluster interconnect (control traffic between front end and
        #: members); sized like the member buses.
        self.interconnect = NetworkBus(self.env, base.network)
        #: Member health, reusing the disk-health state machine over
        #: node indices (rank >= 2 — DOWN or FAILED — is unavailable).
        self.health = HealthMonitor(self.env, config.nodes)
        self._down_events = [Event(self.env) for _ in range(config.nodes)]
        # A closed cluster's terminals are its sole member's own, fed
        # into that member's monitor: the door reads the same one.
        self.qos = (
            self.members[0].qos
            if closed
            else QosMonitor(config.workload.startup_slo_s)
        )
        self.stats = ClusterStats(config.nodes)
        #: The self-healing layer: re-replication on outage, resync on
        #: rejoin.  None (and zero-cost) unless the config both enables
        #: rebuild and scripts an outage to heal around.
        self.rebuild_manager: ClusterRebuildManager | None = None
        if self.heal_plan is not None:
            self.rebuild_manager = ClusterRebuildManager(
                self, config.self_heal, self.heal_plan
            )
        self.router = config.routing.build(self)
        # The edge proxy tier: one prefix cache at the front door,
        # shared by every member's terminals over the global catalog.
        if config.proxy.enabled:
            self._build_proxy(self.interconnect, self._to_global())
        self.register(
            self.interconnect, self.qos, self.stats, self.health, self.rebuild_manager
        )
        self._build_workload(RandomSource(config.seed).spawn("cluster-workload"))

    def _to_global(self) -> list[list[int]]:
        """Each member's local → global title map, sized to its whole
        library — spare re-replication slots included — so a rebuilt
        title streams through the proxy with its global id like any
        construction copy."""
        maps = [[0] * member.library.title_count for member in self.members]
        for title in range(self.catalog_size):
            for node in self.placement.nodes_for(title):
                maps[node][self.placement.local_id(title, node)] = title
        if self.heal_plan is not None:
            for work in self.heal_plan.per_dead.values():
                for item in work:
                    maps[item.dest][item.dest_local] = item.title
        return maps

    # ------------------------------------------------------------------
    # The front door the session generator drives
    # ------------------------------------------------------------------
    #: Sessions draw their title on arrival: routing needs it.
    select_on_arrival = True

    def route(self, title: int) -> int | None:
        """The member to place a session for *title* on, or None."""
        return self.router.route(title)

    def primary(self, title: int) -> int:
        """The member whose copy of *title* the edge proxy caches
        (members are seeded apart, so copies may differ in frame sizes)."""
        return self.placement.primary(title)

    def local_id(self, title: int, node: int) -> int:
        return self.placement.local_id(title, node)

    def place(self):
        """Generator (``yield from``): every placement, failover
        re-routes and spills included, sends one routing message over
        the interconnect before the member is engaged."""
        return self.interconnect.transfer(self.config.node.control_message_bytes)

    # ------------------------------------------------------------------
    # Member availability (consulted by the router and sessions)
    # ------------------------------------------------------------------
    def node_available(self, index: int) -> bool:
        """Whether member *index* can take (or keep) sessions."""
        return self.health.rank(index) < 2  # below DOWN

    def down_event(self, index: int) -> Event:
        """Fires when member *index* suffers an outage; re-armed on
        recovery, so capture it per wait, not per session."""
        return self._down_events[index]

    def rebuild_load(self, node: int):
        """Self-heal traffic load on *node* for the router's ordering
        (integer 0 — not merely 0.0 — when self-healing is off, so the
        historical all-integer load keys are bit-preserved)."""
        if self.rebuild_manager is None:
            return 0
        return self.rebuild_manager.load(node)

    def spill_target(
        self, title: int, exclude: int, queue_limit: int
    ) -> int | None:
        """Placement-aware admission: an alternative replica holder
        with queue room, or None (always None when the feature is off,
        leaving the front door's historical balk path untouched)."""
        if not self.config.self_heal.placement_aware_admission:
            return None
        return self.router.spill_candidate(title, exclude, queue_limit)

    # ------------------------------------------------------------------
    # Scripted node outages
    # ------------------------------------------------------------------
    def _fault_driver(self):
        """Apply the outage script: each listed node fails at
        ``fail_nodes_at_s + k * fail_node_stagger_s`` and (when scripted)
        begins recovery ``node_recover_after_s`` after its own failure.

        Actions are grouped by instant and replayed with one timeout per
        distinct time; with zero stagger this degenerates to exactly the
        historical two-batch schedule (all failures, then all
        recoveries, each batch in ``fail_node_ids`` order) — same event
        count, same ordering, bit-identical digests.
        """
        faults = self.config.faults
        actions: list[tuple[float, object, int]] = []
        for order, index in enumerate(faults.fail_node_ids):
            fail_at = faults.fail_nodes_at_s + order * faults.fail_node_stagger_s
            actions.append((fail_at, self._fail_node, index))
            if faults.node_recover_after_s > 0:
                actions.append(
                    (
                        fail_at + faults.node_recover_after_s,
                        self._recover_node,
                        index,
                    )
                )
        actions.sort(key=lambda action: action[0])  # stable on ties
        elapsed = 0.0
        for at, group in itertools.groupby(actions, key=lambda action: action[0]):
            yield self.env.timeout(at - elapsed)
            elapsed = at
            for _, apply, index in group:
                apply(index)

    def _outage_event(self, index: int) -> FaultEvent:
        faults = self.config.faults
        duration = (
            faults.node_recover_after_s
            if faults.node_recover_after_s > 0
            else math.inf
        )
        return FaultEvent(
            start_s=self.env.now,
            kind=DISK_OUTAGE,  # the health monitor's generic outage kind
            target=index,
            duration_s=duration,
            magnitude=0.0,
        )

    def _fail_node(self, index: int) -> None:
        self.stats.node_outages += 1
        self.health.fault_applied(self._outage_event(index))
        self._down_events[index].succeed()

    def _recover_node(self, index: int) -> None:
        """A scripted recovery instant: with rejoin resync configured
        the member first re-syncs its stale catalog (staying DOWN and
        unroutable until the resync lands); otherwise it re-enters
        routing immediately, the historical behaviour."""
        if (
            self.rebuild_manager is not None
            and self.config.self_heal.rejoin_resync_fraction > 0
        ):
            self.rebuild_manager.begin_rejoin(index)
            return
        self._complete_recovery(index)

    def _complete_recovery(self, index: int) -> None:
        self.stats.node_recoveries += 1
        self.health.fault_reverted(self._outage_event(index))
        self._down_events[index] = Event(self.env)

    # ------------------------------------------------------------------
    # Execution (the paper's methodology, cluster-wide)
    # ------------------------------------------------------------------
    def _launch(self) -> None:
        """Start the outage script, then every member's own terminals
        (a closed cluster's; an open one's arrive through the door)."""
        if self.config.faults.node_outages_enabled:
            self.env.process(self._fault_driver(), name="cluster-faults")
        for member in self.members:
            member.start()

    def collect_metrics(self, measure_s: float) -> RunMetrics:
        """The shared aggregate over the members plus what only a
        cluster has: interconnect traffic (so the network "peak" is a
        sum of per-bus peaks, an upper bound — buses peak at different
        instants), the self-healing counters, and the diagnostic
        ``per_node`` rows (excluded from digests and equality)."""
        metrics = super().collect_metrics(measure_s)
        stats = self.stats
        routed = [0] * len(self.members)
        if self.workload is not None:
            routed = self.workload.stats.routed
        per_node = []
        for index, member in enumerate(self.members):
            utils = member.disk_utilizations()
            per_node.append(
                {
                    "node": index,
                    "routed": routed[index],
                    "admissions_queued": member.admission.queued,
                    "admission_queue_len_max": member.admission.queue_lengths.maximum,
                    "disk_utilization_mean": sum(utils) / len(utils),
                    "blocks_delivered": sum(
                        t.blocks_received for t in member.terminal_stats
                    ),
                    "glitches": sum(t.glitches for t in member.terminal_stats),
                    "available": self.node_available(index),
                    "rebuild_bytes_in": stats.rebuild_bytes_in[index],
                    "rebuild_bytes_out": stats.rebuild_bytes_out[index],
                }
            )
        restore_s = 0.0
        manager = self.rebuild_manager
        if manager is not None and manager.degree_restored_at is not None:
            restore_s = manager.degree_restored_at - self.config.faults.fail_nodes_at_s
        return dataclasses.replace(
            metrics,
            network_peak_bytes_per_s=(
                metrics.network_peak_bytes_per_s + self.interconnect.peak_bandwidth
            ),
            network_mean_bytes_per_s=(
                metrics.network_mean_bytes_per_s + self.interconnect.mean_bandwidth()
            ),
            node_titles_rebuilt=stats.titles_rebuilt,
            node_titles_unrecoverable=stats.titles_unrecoverable,
            node_rebuild_bytes=stats.rebuild_bytes,
            replication_restore_s=restore_s,
            rejoin_resyncs=stats.rejoin_resyncs,
            rejoin_resync_bytes=stats.rejoin_resync_bytes,
            per_node=tuple(per_node),
        )


def run_cluster(config: ClusterConfig) -> RunMetrics:
    """Build and run one cluster.

    A thin type-checked delegate to the unified :func:`repro.api.run`
    entry point, kept for its historical name.
    """
    if not isinstance(config, ClusterConfig):
        raise TypeError(
            f"run_cluster takes a ClusterConfig, got "
            f"{type(config).__name__}; use repro.api.run for other "
            "config types"
        )
    from repro.runnable import run

    return run(config)
