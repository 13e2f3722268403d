"""Assembly and execution of a multi-node SPIFFI cluster.

``SpiffiCluster`` builds N :class:`~repro.core.node.SpiffiNode` members
onto **one** shared simulation environment, joined by a dedicated
interconnect :class:`~repro.netsim.bus.NetworkBus` and fronted by the
placement/routing/session layers of this package.  Cross-node health is
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

The degenerate cluster — one node, closed workload, ``partitioned``
placement — builds exactly the standalone system on the same seed and
is bit-identical to it (pinned by the cluster golden-digest test):
constructing the bus, health monitor, router, and outage events
schedules no simulation events and draws no randomness.
"""

from __future__ import annotations

import itertools
import math
import time

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import collect_cluster_metrics
from repro.cluster.rebuild import ClusterRebuildManager
from repro.cluster.selfheal import RebuildPlan
from repro.cluster.sessions import ClusterSessionGenerator
from repro.core.metrics import RunMetrics
from repro.core.node import SpiffiNode
from repro.faults.schedule import FaultEvent
from repro.faults.spec import DISK_OUTAGE
from repro.media.access import make_access_model
from repro.netsim.bus import NetworkBus
from repro.proxy.runtime import ProxyRuntime, ProxyView
from repro.replication.health import HealthMonitor
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.rng import RandomSource
from repro.workload.qos import QosMonitor


class ClusterStats:
    """Cluster-level counters over the measurement window."""

    def __init__(self, nodes: int = 1) -> None:
        self._nodes = nodes
        self.reset()

    def reset(self) -> None:
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


class SpiffiCluster:
    """N SPIFFI nodes, one environment, one front door."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.env = Environment()
        base = config.node
        self.placement = config.placement.build(config.nodes, base.video_count)
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
        self.health = HealthMonitor(
            self.env, config.nodes, base.replication.suspect_cooldown_s
        )
        self._down_events = [Event(self.env) for _ in range(config.nodes)]
        self.qos = QosMonitor(config.workload.startup_slo_s)
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
        #: The edge proxy tier: one prefix cache at the front door,
        #: shared by every member's terminals over the global catalog.
        self.proxy_runtime: ProxyRuntime | None = None
        if config.proxy.enabled:
            self._build_proxy()
        self.workload: ClusterSessionGenerator | None = None
        if config.workload.enabled:
            self.workload = ClusterSessionGenerator(
                self.env,
                self,
                config.workload,
                RandomSource(config.seed).spawn("cluster-workload"),
            )
        self._started = False

    def _build_proxy(self) -> None:
        """Assemble the edge prefix cache over the global catalog.

        Per-title schedules come from the primary member's copy (every
        replica is byte-identical, so the choice is cosmetic), weights
        from the same popularity model the session generator selects
        with.  Every member gets a :class:`ProxyView` translating its
        local title ids, so terminals spawned on any member consult the
        one shared front-door cache.  Misses forward over the
        interconnect; construction draws no randomness and schedules no
        events.
        """
        config = self.config
        base = config.node
        catalog = self.placement.catalog_size
        weights = make_access_model(
            base.access_model, catalog, base.zipf_skew
        ).weights()
        schedules = []
        for title in range(catalog):
            primary = self.placement.primary(title)
            local = self.placement.local_id(title, primary)
            schedules.append(
                self.members[primary].library[local].schedule(base.stripe_bytes)
            )
        self.proxy_runtime = ProxyRuntime(
            self.env,
            config.proxy,
            schedules=schedules,
            weights=weights,
            block_size=base.stripe_bytes,
            forward_bus=self.interconnect,
            control_message_bytes=base.control_message_bytes,
        )
        for index, member in enumerate(self.members):
            # Sized to the member's whole library — including any spare
            # re-replication slots — so a rebuilt title streams through
            # the proxy with its global id like any construction copy.
            to_global = [0] * member.library.title_count
            for title in range(catalog):
                if index in self.placement.nodes_for(title):
                    to_global[self.placement.local_id(title, index)] = title
            if self.heal_plan is not None:
                for work in self.heal_plan.per_dead.values():
                    for item in work:
                        if item.dest == index:
                            to_global[item.dest_local] = item.title
            member.proxy = ProxyView(self.proxy_runtime, member, to_global)

    def enable_proxy_tracing(self, capacity: int = 100_000):
        """Attach a trace recorder to the edge proxy (``proxy.*`` kinds)."""
        if self.proxy_runtime is None:
            raise ValueError("config enables no proxy; nothing to trace")
        from repro.telemetry.trace import TraceRecorder

        recorder = TraceRecorder(self.env, capacity)
        self.proxy_runtime.trace = recorder
        return recorder

    def enable_cluster_tracing(self, capacity: int = 100_000):
        """Attach a trace recorder to the self-healing layer
        (``cluster.rebuild.*`` / ``cluster.rejoin.*`` plus member
        ``health.change`` transitions); self-healing must be active."""
        if self.rebuild_manager is None:
            raise ValueError(
                "config enables no self-healing rebuild; nothing to trace"
            )
        from repro.telemetry.trace import TraceRecorder

        recorder = TraceRecorder(self.env, capacity)
        self.rebuild_manager.trace = recorder
        self.health.trace = recorder
        return recorder

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
    def start(self) -> None:
        """Launch the workload and the outage script."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        if self.config.faults.node_outages_enabled:
            self.env.process(self._fault_driver(), name="cluster-faults")
        if self.workload is not None:
            self.workload.start()
            return
        for member in self.members:
            member.start()

    def run(self) -> RunMetrics:
        """Warm up, measure, and collect across every member."""
        config = self.config
        self.start()
        self.env.run(until=config.warmup_s)
        self.reset_stats()
        self.env.run(until=config.warmup_s + config.measure_s)
        return collect_cluster_metrics(self, config.measure_s)

    def reset_stats(self) -> None:
        """Begin the measurement window: zero every statistic."""
        for member in self.members:
            member.reset_stats()
        self.interconnect.reset_stats()
        self.qos.reset()
        self.stats.reset()
        if self.proxy_runtime is not None:
            self.proxy_runtime.reset_stats()
        if self.workload is not None:
            self.workload.reset_stats()


def execute_cluster(config: ClusterConfig) -> RunMetrics:
    """The registered executor behind ``run(ClusterConfig)``.

    Mirrors :func:`repro.core.system.execute_simulation`: the returned
    metrics carry execution accounting (wall time and events processed,
    covering construction plus the run).
    """
    from repro.telemetry.runstats import RunStopwatch

    started = time.perf_counter()
    cluster = SpiffiCluster(config)
    with RunStopwatch(cluster.env) as watch:
        metrics = cluster.run()
    watch.wall_time_s = time.perf_counter() - started
    return watch.stamp(metrics)


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
