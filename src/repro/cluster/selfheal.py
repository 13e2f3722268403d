"""Cluster self-healing: the spec and the re-replication plan.

:class:`SelfHealSpec` follows the declarative-spec idiom (an immutable
value object on :class:`~repro.cluster.config.ClusterConfig`); the
**default spec is inert** — no rebuild manager is built, no spare
library slots are allocated, the admission path takes its historical
branches — so a cluster with ``SelfHealSpec()`` is bit-identical to a
build without this module at all (pinned by the golden-identity tests).

:class:`RebuildPlan` answers the one question re-replication cannot
defer to run time: *where do the new copies live?*  A member's library
and disk layout are sized at construction, so a survivor can only
receive a re-replicated title if a **spare slot** was provisioned for
it.  Scripted outages (``FaultSpec.fail_node_ids``) are known at config
time, so the plan is a pure function of the placement and the fault
script: for every title a scheduled-to-fail node hosts, pick the
surviving non-host with the fewest spares so far (ties to the lowest
index) and reserve the next spare local id on it.  The cluster then
builds each member with ``local_count + spares`` videos, and the
rebuild manager copies into those slots when the outage actually
happens.

Planned destinations are chosen among *final* survivors — nodes the
script never fails — a deliberate modelling choice: re-replicating onto
a member that is itself about to die would manufacture work the real
system's placement policy would avoid.  Sources, by contrast, are
chosen at run time among the currently-alive hosts, because which
replica is alive when the copy runs is a run-time fact.
"""

from __future__ import annotations

import dataclasses
import math
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.placement import CatalogPlacement
    from repro.faults.spec import FaultSpec

MB = 1024 * 1024


@dataclasses.dataclass(frozen=True)
class SelfHealSpec:
    """How (and whether) the cluster heals itself around node outages."""

    #: The router's per-stream rebuild load is the constant
    #: :data:`repro.cluster.rebuild.REBUILD_LOAD_PENALTY`; its old
    #: default stays in the canonical form so every existing config
    #: digest and run-cache key stays valid.
    schema_constants = {"rebuild_load_penalty": 2.0}

    #: Re-replicate a dead member's catalog onto survivors, through the
    #: interconnect and the survivors' real disk paths.
    rebuild: bool = False
    #: Moved-bytes budget (read + write) per dead node's rebuild stream;
    #: also paces rejoin resync.  The knob trading time-to-redundancy
    #: against foreground glitches, exactly like the per-disk rebuild.
    rebuild_bandwidth_bytes_per_s: float = 4 * MB
    #: Fraction of a recovered member's local catalog bytes assumed
    #: stale and re-synced (over the interconnect, onto its disks)
    #: before the member re-enters routing.  0 = rejoin is immediate,
    #: the historical behaviour.
    rejoin_resync_fraction: float = 0.05
    #: Consult per-node queue depth before committing a session to one
    #: member's queue: an arrival that would balk on the routed node
    #: spills to another replica holder with queue room instead.
    placement_aware_admission: bool = False

    def __post_init__(self) -> None:
        if (
            self.rebuild_bandwidth_bytes_per_s <= 0
            or not math.isfinite(self.rebuild_bandwidth_bytes_per_s)
        ):
            raise ValueError(
                f"rebuild_bandwidth_bytes_per_s must be finite and positive, "
                f"got {self.rebuild_bandwidth_bytes_per_s}"
            )
        if not 0.0 <= self.rejoin_resync_fraction <= 1.0:
            raise ValueError(
                f"rejoin_resync_fraction must be in [0, 1], "
                f"got {self.rejoin_resync_fraction}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any self-healing behaviour is switched on."""
        return self.rebuild or self.placement_aware_admission

    def label(self) -> str:
        if not self.enabled:
            return "no self-heal"
        parts = []
        if self.rebuild:
            parts.append(
                f"rebuild@{self.rebuild_bandwidth_bytes_per_s / MB:g}MB/s"
            )
        if self.placement_aware_admission:
            parts.append("spill")
        return "heal(" + ", ".join(parts) + ")"


@dataclasses.dataclass(frozen=True)
class TitleRebuild:
    """One planned re-replication: a title lost with *dead*, to be
    copied into spare slot *dest_local* on surviving node *dest*."""

    dead: int
    title: int
    dest: int
    dest_local: int


class RebuildPlan:
    """Where every re-replicated copy will live, decided at build time.

    ``per_dead[d]`` lists the :class:`TitleRebuild` work triggered by
    node *d*'s outage, in ascending title order; ``spares[n]`` is the
    number of extra library slots member *n* must be built with.

    One new copy per title: a title hosted on several scheduled-to-fail
    nodes is planned once, against the first of them to fail.  Whether
    the copy can actually run is a *run-time* question — under a
    staggered script the title's other host may still be alive during
    the first rebuild window (the race the resilience experiment
    measures), while under a simultaneous script every source is
    already dead and the manager counts the title unrecoverable.  A
    title with no destination candidate (every final survivor already
    hosts it) needs no copy: it outlives the script as built.
    """

    def __init__(
        self, placement: "CatalogPlacement", fail_node_ids: typing.Sequence[int]
    ) -> None:
        doomed = set(fail_node_ids)
        self.per_dead: dict[int, list[TitleRebuild]] = {
            dead: [] for dead in fail_node_ids
        }
        self.spares = [0] * placement.nodes
        planned: set[int] = set()
        for dead in fail_node_ids:
            for title in range(placement.catalog_size):
                hosts = placement.nodes_for(title)
                if dead not in hosts or title in planned:
                    continue
                candidates = [
                    node
                    for node in range(placement.nodes)
                    if node not in doomed and node not in hosts
                ]
                if not candidates:
                    continue  # every survivor already holds a copy
                dest = min(
                    candidates, key=lambda node: (self.spares[node], node)
                )
                self.per_dead[dead].append(
                    TitleRebuild(
                        dead=dead,
                        title=title,
                        dest=dest,
                        dest_local=placement.local_count(dest)
                        + self.spares[dest],
                    )
                )
                self.spares[dest] += 1
                planned.add(title)

    @property
    def total_titles(self) -> int:
        """Planned re-replications across every scheduled outage."""
        return sum(len(work) for work in self.per_dead.values())
