"""Cluster-level configuration: N SPIFFI nodes behind one front end.

``ClusterConfig`` composes a per-node :class:`~repro.core.config.
SpiffiConfig` (the member hardware and algorithms) with the cluster-only
choices: member count, catalog placement, request routing, the
cluster-wide open workload, and scripted node outages.  It deliberately
mirrors the ``SpiffiConfig`` surface that the experiment machinery
relies on (``seed``, ``measure_s``, ``replace``, ``describe``) so
sweeps, the run cache, and :func:`repro.workload.saturation.
find_max_rate` drive clusters and single systems interchangeably.

A 1-node ``partitioned`` cluster with a closed workload is the
degenerate case: it builds exactly one :class:`~repro.core.node.
SpiffiNode` with the member config's own seed and full catalog, and is
**bit-identical** to running that ``SpiffiConfig`` standalone (pinned
by the cluster golden-digest test).
"""

from __future__ import annotations

import dataclasses

from repro.cluster.placement import PlacementSpec
from repro.cluster.routing import RouterSpec
from repro.cluster.selfheal import SelfHealSpec
from repro.core.config import SpiffiConfig
from repro.faults.spec import FaultSpec
from repro.proxy.spec import ProxySpec
from repro import schema
from repro.runnable import register_runnable
from repro.workload.spec import ArrivalSpec


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """A multi-node SPIFFI installation.

    *node* describes one member (every member is shaped identically;
    member *i* runs with ``seed + i`` so replicas are statistically
    identical but not lock-stepped).  The cluster owns the workload:
    *workload* is the cluster-wide arrival process, routed to members
    by *routing* within the constraints of *placement*.  *faults* may
    script **node-level** outages only (``fail_node_ids`` et al.);
    per-disk faults belong on ``node.faults`` as always.

    The canonical form digests *workload* and *faults* always, but the
    *proxy* and *self_heal* tiers only while enabled.
    """

    #: Versions cluster semantics independently of the global run-cache
    #: version; schema 2 charges front-door routing control messages to
    #: the interconnect.
    schema_constants = {"schema": 2}

    node: SpiffiConfig = dataclasses.field(default_factory=SpiffiConfig)
    nodes: int = 1
    placement: PlacementSpec = dataclasses.field(default_factory=PlacementSpec)
    routing: RouterSpec = dataclasses.field(default_factory=RouterSpec)
    #: Cluster-wide arrival process.  Closed (the default) is only
    #: meaningful for 1-node clusters, where the member builds its own
    #: terminal population exactly as a standalone system would.
    workload: ArrivalSpec = dataclasses.field(default_factory=ArrivalSpec)
    #: Node-outage script (``fail_node_ids``/``fail_nodes_at_s``/
    #: ``node_recover_after_s``); disk faults are per-node
    #: concerns and are rejected here.
    faults: FaultSpec = dataclasses.field(default_factory=FaultSpec)
    #: Cluster-edge proxy tier: one prefix cache at the front door,
    #: serving startup blocks over the **global** catalog before the
    #: router is consulted.  Disabled by default; requires an open
    #: cluster workload (the closed 1-node population never routes
    #: through the front door).
    proxy: ProxySpec = schema.field(factory=ProxySpec, digest=schema.OMIT_WHEN_DEFAULT)
    #: Self-healing around node outages: catalog re-replication onto
    #: survivors, rejoin resync, and placement-aware (spill) admission.
    #: The default spec is inert — runs are bit-identical to a build
    #: without the self-healing layer at all.
    self_heal: SelfHealSpec = schema.field(
        factory=SelfHealSpec, digest=schema.OMIT_WHEN_DEFAULT
    )
    #: Cluster seed; None adopts ``node.seed``.  Member *i* runs with
    #: ``seed + i``; the cluster session generator draws from the
    #: ``"cluster-workload"`` child stream of ``seed``.
    seed: int | None = None

    def __post_init__(self) -> None:
        schema.check_types(self)
        if self.nodes < 1:
            raise ValueError(f"need at least one node, got {self.nodes}")
        if self.seed is None:
            object.__setattr__(self, "seed", self.node.seed)
        if self.nodes > 1 and not self.workload.enabled:
            raise ValueError(
                "a multi-node cluster needs an open cluster workload "
                "(workload=ArrivalSpec(process=...)); the closed "
                "terminal population is a single-node concept"
            )
        if self.node.workload.enabled:
            raise ValueError(
                "the cluster owns the workload: set ClusterConfig.workload, "
                "not node.workload"
            )
        if self.node.proxy.enabled:
            raise ValueError(
                "the cluster owns the proxy tier: set ClusterConfig.proxy, "
                "not node.proxy"
            )
        if self.proxy.enabled and not self.workload.enabled:
            raise ValueError(
                "a cluster proxy needs an open cluster workload "
                "(workload=ArrivalSpec(process=...)); closed terminal "
                "populations stream from their own member, not the front "
                "door"
            )
        if self.proxy.enabled and self.proxy.memory_bytes < self.node.stripe_bytes:
            raise ValueError(
                f"proxy memory {self.proxy.memory_bytes} cannot hold even "
                f"one {self.node.stripe_bytes}-byte block"
            )
        if self.faults.enabled:
            raise ValueError(
                "cluster faults may only script node outages; put disk "
                "fault schedules on node.faults"
            )
        bad = [n for n in self.faults.fail_node_ids if n >= self.nodes]
        if bad:
            raise ValueError(
                f"fail_node_ids {bad} out of range for {self.nodes} node(s) "
                f"(valid: 0..{self.nodes - 1})"
            )
        if len(self.faults.fail_node_ids) >= self.nodes:
            raise ValueError(
                f"fault spec fails all {self.nodes} node(s); at least one "
                f"member must survive"
            )
        if self.self_heal.rebuild and not self.faults.node_outages_enabled:
            raise ValueError(
                "self_heal.rebuild=True but faults.fail_node_ids is empty: "
                "re-replication destinations are provisioned at build time "
                "from the scripted outage, so there is nothing to heal"
            )
        if self.self_heal.enabled and self.nodes < 2:
            raise ValueError(
                "self-healing (self_heal.rebuild or "
                "self_heal.placement_aware_admission) needs a multi-node "
                f"cluster, got nodes={self.nodes}"
            )
        # Build the placement once for validation: bad shapes (e.g.
        # more chained replicas than nodes) fail at config time, not run
        # time.
        self.placement.build(self.nodes, self.node.video_count)

    # --- derived quantities --------------------------------------------
    @property
    def catalog_size(self) -> int:
        """Distinct titles across the whole cluster."""
        return self.placement.build(self.nodes, self.node.video_count).catalog_size

    @property
    def measure_s(self) -> float:
        return self.node.measure_s

    @property
    def warmup_s(self) -> float:
        return self.node.warmup_s

    @property
    def total_sim_time_s(self) -> float:
        return self.node.total_sim_time_s

    def replace(self, **changes) -> "ClusterConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary for reports and the cache."""
        text = (
            f"{self.nodes}-node cluster, {self.placement.label()} placement, "
            f"{self.routing.label()} routing, {self.workload.label()}, "
        )
        if self.proxy.enabled:
            text += f"{self.proxy.label()}, "
        if self.self_heal.enabled:
            text += f"{self.self_heal.label()}, "
        return text + f"node: {self.node.describe()}"

    def label(self) -> str:
        return f"{self.nodes}n/{self.placement.label()}/{self.routing.label()}"


def _run_cluster_config(config: ClusterConfig):
    """The registered executor behind ``run(ClusterConfig)``."""
    from repro.cluster.system import SpiffiCluster
    from repro.telemetry.runstats import execute_timed

    return execute_timed(SpiffiCluster, config)


register_runnable(
    ClusterConfig,
    kind="cluster",
    run=_run_cluster_config,
    # Namespaced so no cluster digest can collide with a single-system
    # digest of similar shape.
    cache_dict=lambda config: {"cluster": schema.canonical_form(config)},
)
