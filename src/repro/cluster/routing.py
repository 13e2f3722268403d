"""Front-end request routing: which replica host serves a session.

A :class:`RouterSpec` names a registered routing policy; building it
against a live :class:`~repro.cluster.system.SpiffiCluster` yields a
:class:`RequestRouter`.  Routers are consulted once per session (and
again on every cross-node failover) with a global title id; they pick
among the title's *available* hosting nodes — placement-constrained,
health-filtered — and return None when no host survives.

Built-in policies:

* ``least-loaded`` — the healthiest candidate with the fewest active
  plus queued streams (join-the-shortest-queue across replicas);
* ``locality`` — the title's placement primary whenever it is up,
  falling back to least-loaded among the surviving replicas.

Determinism: routers draw no randomness, and every tie-break is by
node index, so the session->node assignment is a pure function of the
config and the simulated history.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.registry import Registry

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.system import SpiffiCluster

#: ``factory(spec, cluster) -> RequestRouter``
RouterFactory = typing.Callable[..., "RequestRouter"]

ROUTERS: Registry[RouterFactory] = Registry("router")
register_router = ROUTERS.register
router_names = ROUTERS.names


@dataclasses.dataclass(frozen=True)
class RouterSpec:
    """Which routing policy the cluster front end runs."""

    #: The retired ``consistent-hash`` router's knob; its old default
    #: stays in the canonical form so every existing config digest and
    #: run-cache key stays valid.
    schema_constants = {"virtual_points": 64}

    name: str = "least-loaded"

    def __post_init__(self) -> None:
        ROUTERS.lookup(self.name)

    def build(self, cluster: "SpiffiCluster") -> "RequestRouter":
        return ROUTERS.lookup(self.name)(self, cluster)

    def label(self) -> str:
        return self.name


class RequestRouter:
    """Base router: placement-constrained, health-filtered candidates."""

    def __init__(self, spec: RouterSpec, cluster: "SpiffiCluster") -> None:
        self.spec = spec
        self.cluster = cluster

    def candidates(self, title: int) -> list[int]:
        """The title's hosting nodes that are currently serviceable."""
        cluster = self.cluster
        return [
            node
            for node in cluster.placement.nodes_for(title)
            if cluster.node_available(node)
        ]

    def _load(self, node: int) -> float:
        """Streams on *node* plus any self-heal traffic it is absorbing
        (``rebuild_load`` is 0.0 whenever self-healing is disabled, so
        the historical integer ordering is untouched)."""
        admission = self.cluster.members[node].admission
        return (
            admission.active
            + admission.queue_length
            + self.cluster.rebuild_load(node)
        )

    def _least_loaded(self, candidates: list[int]) -> int:
        health = self.cluster.health
        return min(
            candidates, key=lambda node: (health.rank(node), self._load(node), node)
        )

    def route(self, title: int) -> int | None:
        """The node to serve *title* now, or None if no host survives."""
        raise NotImplementedError

    def spill_candidate(
        self, title: int, exclude: int, queue_limit: int
    ) -> int | None:
        """A replica holder with queue room, for placement-aware
        admission: the least-loaded available host of *title* other
        than *exclude* whose admission queue is below *queue_limit*
        (None when every alternative is as full as the routed node)."""
        members = self.cluster.members
        candidates = [
            node
            for node in self.candidates(title)
            if node != exclude
            and members[node].admission.queue_length < queue_limit
        ]
        if not candidates:
            return None
        return self._least_loaded(candidates)


class LeastLoadedRouter(RequestRouter):
    def route(self, title: int) -> int | None:
        candidates = self.candidates(title)
        if not candidates:
            return None
        return self._least_loaded(candidates)


class LocalityRouter(RequestRouter):
    def route(self, title: int) -> int | None:
        candidates = self.candidates(title)
        if not candidates:
            return None
        primary = self.cluster.placement.primary(title)
        if primary in candidates:
            return primary
        return self._least_loaded(candidates)


register_router("least-loaded", LeastLoadedRouter)
register_router("locality", LocalityRouter)
