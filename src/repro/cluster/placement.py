"""Catalog placement: which cluster node hosts which title.

A :class:`PlacementSpec` follows the declarative-spec idiom of
:class:`repro.layout.registry.LayoutSpec`: an immutable value object on
:class:`~repro.cluster.config.ClusterConfig` naming a registered
placement scheme.  Building the spec against a node count and the
per-node catalog capacity yields a :class:`CatalogPlacement` — the pure
mapping from global title ids to hosting nodes and node-local video
ids that both the router and the session generator consult.

Built-in schemes:

* ``partitioned`` — every node stores a distinct slice of the catalog
  (global catalog = nodes x per-node videos); maximum catalog breadth,
  no cross-node failover possible;
* ``replicated`` — every node stores the full catalog (global catalog =
  the per-node capacity); primaries rotate round-robin so load spreads,
  and any node can serve any title;
* ``chained-declustered`` — each title on ``replicas`` cyclically
  consecutive nodes.

Third-party schemes plug in via :func:`register_placement` without
touching the cluster assembly, mirroring every other registry in the
tree.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import schema
from repro.registry import Registry


class CatalogPlacement:
    """The built placement: titles -> hosting nodes -> local video ids.

    *hosts* lists, per global title, the hosting node ids with the
    **primary first**.  Local video ids are assigned per node in
    ascending global-title order, so the mapping is a pure function of
    the placement (no RNG, no construction-order dependence).
    """

    def __init__(self, nodes: int, hosts: list[tuple[int, ...]]) -> None:
        if nodes < 1:
            raise ValueError(f"need at least one node, got {nodes}")
        self.nodes = nodes
        self.hosts = hosts
        self._local: dict[tuple[int, int], int] = {}
        counts = [0] * nodes
        for title, node_ids in enumerate(hosts):
            if not node_ids:
                raise ValueError(f"title {title} has no hosting node")
            for node in node_ids:
                if not 0 <= node < nodes:
                    raise ValueError(
                        f"title {title} hosted on node {node}, "
                        f"outside 0..{nodes - 1}"
                    )
                self._local[(title, node)] = counts[node]
                counts[node] += 1
        self._local_counts = counts

    @property
    def catalog_size(self) -> int:
        """Distinct titles across the whole cluster."""
        return len(self.hosts)

    def nodes_for(self, title: int) -> tuple[int, ...]:
        """Hosting node ids for *title*, primary first."""
        return self.hosts[title]

    def primary(self, title: int) -> int:
        return self.hosts[title][0]

    def local_id(self, title: int, node: int) -> int:
        """The node-local video id of *title* on *node*."""
        try:
            return self._local[(title, node)]
        except KeyError:
            raise ValueError(f"title {title} is not hosted on node {node}") from None

    def local_count(self, node: int) -> int:
        """Videos stored on *node* (its library size)."""
        return self._local_counts[node]

    def replication_of(self, title: int) -> int:
        """Copies of *title* across the cluster."""
        return len(self.hosts[title])

    def add_replica(self, title: int, node: int, local_id: int) -> None:
        """Activate a new live copy of *title* on *node*.

        Called by the cluster rebuild manager once a re-replicated
        title's last block lands on the destination's disks; the router
        sees the node as a host from the next ``nodes_for`` call.  The
        copy is appended, so the title's primary never changes.  The
        caller supplies *local_id* — the spare library slot the copy was
        written into — because spare slots sit past the construction
        count this mapping assigned.
        """
        if not 0 <= node < self.nodes:
            raise ValueError(f"node {node} outside 0..{self.nodes - 1}")
        if node in self.hosts[title]:
            raise ValueError(f"title {title} is already hosted on node {node}")
        self.hosts[title] = self.hosts[title] + (node,)
        self._local[(title, node)] = local_id


#: ``factory(spec, nodes, videos_per_node) -> CatalogPlacement``
PlacementFactory = typing.Callable[..., CatalogPlacement]

PLACEMENTS: Registry[PlacementFactory] = Registry("placement")
register_placement = PLACEMENTS.register
placement_names = PLACEMENTS.names


@dataclasses.dataclass(frozen=True)
class PlacementSpec:
    """Which placement scheme the cluster uses, with its parameters."""

    #: The retired ``hybrid-hot-replicated`` scheme's knob; its old
    #: default stays in the canonical form so every existing config
    #: digest and run-cache key stays valid.
    schema_constants = {"hot_titles": 0}

    name: str = "partitioned"
    #: ``chained-declustered``: copies per title (0 elsewhere, where the
    #: scheme itself fixes the replication degree; digested only when
    #: set).
    replicas: int = schema.field(0, digest=schema.OMIT_WHEN_DEFAULT)

    def __post_init__(self) -> None:
        PLACEMENTS.lookup(self.name)
        if self.name == "chained-declustered" and self.replicas < 2:
            raise ValueError(
                f"chained-declustered needs replicas >= 2, "
                f"got {self.replicas}"
            )
        if self.name != "chained-declustered" and self.replicas != 0:
            raise ValueError(
                f"placement {self.name!r} takes no replicas "
                f"(got {self.replicas})"
            )

    def build(self, nodes: int, videos_per_node: int) -> CatalogPlacement:
        """The concrete title->node mapping for this cluster shape."""
        if videos_per_node < 1:
            raise ValueError(
                f"need at least one video per node, got {videos_per_node}"
            )
        return PLACEMENTS.lookup(self.name)(self, nodes, videos_per_node)

    def label(self) -> str:
        if self.replicas:
            return f"{self.name}({self.replicas})"
        return self.name


def _partitioned(spec: PlacementSpec, nodes: int, per: int) -> CatalogPlacement:
    hosts = [(title // per,) for title in range(nodes * per)]
    return CatalogPlacement(nodes, hosts)


def _replicated(spec: PlacementSpec, nodes: int, per: int) -> CatalogPlacement:
    # Primaries rotate round-robin; the remaining replicas follow
    # cyclically so every title names every node exactly once.
    hosts = [
        tuple((title + shift) % nodes for shift in range(nodes))
        for title in range(per)
    ]
    return CatalogPlacement(nodes, hosts)


def _chained(spec: PlacementSpec, nodes: int, per: int) -> CatalogPlacement:
    """Chained declustering at the node level (cf. the disk-level layout
    in :mod:`repro.layout`): each title lives on ``replicas`` cyclically
    consecutive nodes, so losing one node leaves every title exactly one
    copy short — the sweet spot for measuring re-replication — and the
    rebuild load of a dead member spreads over its chain neighbours.

    Per-node storage stays at the ``per``-video capacity: the catalog
    holds ``nodes * per // replicas`` distinct titles, each stored
    ``replicas`` times.
    """
    if spec.replicas > nodes:
        raise ValueError(
            f"chained-declustered replicas={spec.replicas} exceeds "
            f"{nodes} node(s)"
        )
    catalog = nodes * per // spec.replicas
    if catalog < 1:
        raise ValueError(
            f"chained-declustered({spec.replicas}) over {nodes} node(s) x "
            f"{per} video(s) leaves no catalog"
        )
    hosts = [
        tuple((title + shift) % nodes for shift in range(spec.replicas))
        for title in range(catalog)
    ]
    return CatalogPlacement(nodes, hosts)


register_placement("partitioned", _partitioned)
register_placement("replicated", _replicated)
register_placement("chained-declustered", _chained)
