"""Multi-node SPIFFI: placement, routing, and cross-node failover.

The paper scales a single SPIFFI server; this package promotes that
server to a *cluster member* (:class:`~repro.core.node.SpiffiNode`) and
adds the installation-level layers around it:

* :mod:`~repro.cluster.placement` — which node stores which title
  (``partitioned`` / ``replicated`` / ``chained-declustered``);
* :mod:`~repro.cluster.routing` — which replica host serves a session
  (``least-loaded`` / ``locality``);
* :mod:`~repro.cluster.selfheal` / :mod:`~repro.cluster.rebuild` — the
  self-healing layer: catalog re-replication onto survivors, node
  rejoin resync, and placement-aware (spill) admission;
* :mod:`~repro.cluster.system` — N members on one simulation
  environment, scripted node outages, and the front door that
  :class:`repro.workload.generator.SessionGenerator` drives: the same
  session lifecycle and the same metrics collector as a standalone
  server, plus cross-node failover when a member drops.

Everything is registry-backed and deterministic, and the degenerate
1-node closed cluster is bit-identical to the standalone system.
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import (
    CatalogPlacement,
    PlacementSpec,
    placement_names,
    register_placement,
)
from repro.cluster.rebuild import ClusterRebuildManager
from repro.cluster.routing import (
    RequestRouter,
    RouterSpec,
    register_router,
    router_names,
)
from repro.cluster.selfheal import RebuildPlan, SelfHealSpec
from repro.cluster.system import ClusterStats, SpiffiCluster, run_cluster

__all__ = [
    "CatalogPlacement",
    "ClusterConfig",
    "ClusterRebuildManager",
    "ClusterStats",
    "PlacementSpec",
    "RebuildPlan",
    "RequestRouter",
    "RouterSpec",
    "SelfHealSpec",
    "SpiffiCluster",
    "placement_names",
    "register_placement",
    "register_router",
    "router_names",
    "run_cluster",
]
