"""Fault-injection configuration.

``FaultSpec`` follows the same declarative-spec idiom as
:class:`repro.sched.registry.SchedulerSpec`: an immutable value object
on :class:`repro.core.config.SpiffiConfig` from which everything else —
the fault schedule, the degraded-mode server behaviour, the glitch
attribution — is derived deterministically.

The default spec is **empty** (both rates zero): no injector process is
created, no extra random draws happen, and a run is bit-identical to
one on a build without the fault subsystem at all.
"""

from __future__ import annotations

import dataclasses
import math

from repro import schema

#: Fault kinds produced by the schedule generator.
DISK_SLOW = "disk_slow"
DISK_OUTAGE = "disk_outage"
DISK_FAIL = "disk_fail"
#: Cluster-level kind: a whole server node drops out (see
#: :mod:`repro.cluster`; never produced by the per-node schedule).
NODE_OUTAGE = "node_outage"

FAULT_KINDS = (DISK_SLOW, DISK_OUTAGE, DISK_FAIL, NODE_OUTAGE)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """A seeded, deterministic schedule of hardware misbehaviour.

    Disk faults arrive per disk as a Poisson process at
    ``disk_fault_rate_per_hour``; each arrival is one of

    * *slow I/O* — every service time is multiplied by
      ``slow_latency_multiplier`` for an exponentially distributed
      duration (mean ``mean_slow_duration_s``);
    * *outage* — the drive stops servicing entirely for an exponential
      duration (mean ``mean_outage_duration_s``); queued requests wait;
    * *permanent failure* — the drive completes every current and
      future request immediately as *failed*; the server fails the
      read over (see below) instead of waiting.

    The three kinds are drawn with probability proportional to their
    ``*_weight``.

    Degraded-mode server behaviour (active only when the spec is
    non-empty):

    * every terminal-facing disk read carries a timeout of
      ``request_timeout_s``; on expiry the node cancels the queued
      request and re-dispatches it, up to ``max_retries`` times;
    * a read that exhausts its retries, or whose drive has failed
      permanently, is *failed over*: the node serves the block after
      :data:`repro.server.node.FAILOVER_PENALTY_S` (modelling retrieval
      from a replica or error concealment) so streams degrade instead
      of deadlocking;
    * while a disk outage is active, admission control stops admitting
      new streams; waiting terminals are admitted when the outage
      clears.

    A glitch is *fault-attributed* when it begins while any fault is
    active or within :data:`repro.faults.injector.ATTRIBUTION_GRACE_S`
    of one ending; metrics report fault-attributed and scheduling
    glitches separately.
    """

    #: The network-degradation knobs and the fixed degraded-mode
    #: constants were retired as fields; their old values stay in the
    #: canonical form so every existing config digest and run-cache key
    #: stays valid.
    schema_constants = {
        "network_fault_rate_per_hour": 0.0,
        "network_latency_multiplier": 8.0,
        "mean_network_fault_duration_s": 10.0,
        "failover_penalty_s": 0.5,
        "shed_during_outage": True,
        "attribution_grace_s": 5.0,
    }

    # --- disk fault schedule -------------------------------------------
    disk_fault_rate_per_hour: float = 0.0
    slow_weight: float = 3.0
    outage_weight: float = 1.0
    fail_weight: float = 0.0
    slow_latency_multiplier: float = 4.0
    mean_slow_duration_s: float = 20.0
    mean_outage_duration_s: float = 5.0

    # --- explicit permanent failures -----------------------------------
    #: Global disk indices that fail permanently at ``fail_at_s``,
    #: independent of the random schedule — the deterministic scenario
    #: knob availability experiments sweep.  Validated against the disk
    #: count (and the replication factor's survivor requirement) at
    #: config time.
    fail_disk_ids: tuple[int, ...] = ()
    fail_at_s: float = 0.0

    # --- cluster-level node outages (see repro.cluster) -----------------
    #: Cluster member indices that drop out at ``fail_nodes_at_s``; the
    #: cluster reroutes their sessions to surviving replica hosts.
    #: Rejected on a single node's :class:`SpiffiConfig` — a node cannot
    #: out-live itself; only :class:`~repro.cluster.ClusterConfig`
    #: accepts these fields (validated against its member count).
    fail_node_ids: tuple[int, ...] = ()
    fail_nodes_at_s: float = 0.0
    #: Simulated seconds after the outage until the nodes rejoin
    #: (0 = the outage is permanent).
    node_recover_after_s: float = 0.0
    #: Spacing between consecutive node failures: member
    #: ``fail_node_ids[k]`` drops at ``fail_nodes_at_s + k * stagger``
    #: (0 = all listed nodes fail simultaneously, the historical
    #: semantics).  Each node's recovery, when scripted, follows its
    #: own failure by ``node_recover_after_s``.  Digested only when set,
    #: so unstaggered fault configs keep their pre-stagger digests.
    fail_node_stagger_s: float = schema.field(0.0, digest=schema.OMIT_WHEN_DEFAULT)

    # --- degraded-mode server behaviour --------------------------------
    request_timeout_s: float = 2.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.disk_fault_rate_per_hour < 0:
            raise ValueError(
                f"disk fault rate must be >= 0, got {self.disk_fault_rate_per_hour}"
            )
        for label, weight in (
            ("slow_weight", self.slow_weight),
            ("outage_weight", self.outage_weight),
            ("fail_weight", self.fail_weight),
        ):
            if weight < 0:
                raise ValueError(f"{label} must be >= 0, got {weight}")
        if self.disk_fault_rate_per_hour > 0 and self._total_weight() <= 0:
            raise ValueError(
                "disk faults enabled but every kind weight is zero"
            )
        if self.slow_latency_multiplier < 1.0:
            raise ValueError(
                f"slow_latency_multiplier must be >= 1, "
                f"got {self.slow_latency_multiplier}"
            )
        for label, duration in (
            ("mean_slow_duration_s", self.mean_slow_duration_s),
            ("mean_outage_duration_s", self.mean_outage_duration_s),
        ):
            if duration <= 0:
                raise ValueError(f"{label} must be positive, got {duration}")
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be positive, got {self.request_timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not isinstance(self.fail_disk_ids, tuple):
            object.__setattr__(self, "fail_disk_ids", tuple(self.fail_disk_ids))
        for disk in self.fail_disk_ids:
            if not isinstance(disk, int) or disk < 0:
                raise ValueError(
                    f"fail_disk_ids must be non-negative disk indices, "
                    f"got {self.fail_disk_ids!r}"
                )
        if len(set(self.fail_disk_ids)) != len(self.fail_disk_ids):
            raise ValueError(
                f"fail_disk_ids contains duplicates: {self.fail_disk_ids!r}"
            )
        if self.fail_at_s < 0 or not math.isfinite(self.fail_at_s):
            raise ValueError(
                f"fail_at_s must be finite and >= 0, got {self.fail_at_s}"
            )
        if self.fail_at_s > 0 and not self.fail_disk_ids:
            raise ValueError(
                f"fail_at_s={self.fail_at_s:g} but fail_disk_ids is empty: "
                "nothing is scheduled to fail"
            )
        if not isinstance(self.fail_node_ids, tuple):
            object.__setattr__(self, "fail_node_ids", tuple(self.fail_node_ids))
        for node in self.fail_node_ids:
            if not isinstance(node, int) or node < 0:
                raise ValueError(
                    f"fail_node_ids must be non-negative node indices, "
                    f"got {self.fail_node_ids!r}"
                )
        if len(set(self.fail_node_ids)) != len(self.fail_node_ids):
            raise ValueError(
                f"fail_node_ids contains duplicates: {self.fail_node_ids!r}"
            )
        if self.fail_nodes_at_s < 0 or not math.isfinite(self.fail_nodes_at_s):
            raise ValueError(
                f"fail_nodes_at_s must be finite and >= 0, "
                f"got {self.fail_nodes_at_s}"
            )
        if self.fail_nodes_at_s > 0 and not self.fail_node_ids:
            raise ValueError(
                f"fail_nodes_at_s={self.fail_nodes_at_s:g} but fail_node_ids "
                "is empty: no node is scheduled to fail"
            )
        if self.node_recover_after_s < 0 or not math.isfinite(
            self.node_recover_after_s
        ):
            raise ValueError(
                f"node_recover_after_s must be finite and >= 0, "
                f"got {self.node_recover_after_s}"
            )
        if self.node_recover_after_s > 0 and not self.fail_node_ids:
            raise ValueError(
                "node_recover_after_s without fail_node_ids: nothing to recover"
            )
        if self.fail_node_stagger_s < 0 or not math.isfinite(
            self.fail_node_stagger_s
        ):
            raise ValueError(
                f"fail_node_stagger_s must be finite and >= 0, "
                f"got {self.fail_node_stagger_s}"
            )
        if self.fail_node_stagger_s > 0 and len(self.fail_node_ids) < 2:
            raise ValueError(
                f"fail_node_stagger_s={self.fail_node_stagger_s:g} needs at "
                f"least two fail_node_ids to stagger, "
                f"got {self.fail_node_ids!r}"
            )
        if (
            0 < self.node_recover_after_s <= self.fail_node_stagger_s
        ) and len(self.fail_node_ids) > 1:
            # Each node would recover before the next one fails; allowed,
            # but recovery *at* the same instant as the next failure is
            # an ordering trap the driver refuses to arbitrate.
            if self.node_recover_after_s == self.fail_node_stagger_s:
                raise ValueError(
                    f"node_recover_after_s ({self.node_recover_after_s:g}) "
                    f"equals fail_node_stagger_s: a node would recover at "
                    "the exact instant the next fails; offset one of the "
                    "two fields"
                )

    def _total_weight(self) -> float:
        return self.slow_weight + self.outage_weight + self.fail_weight

    @property
    def enabled(self) -> bool:
        """Whether any *node-internal* (disk) fault can ever be injected
        under this spec.  Node-level outages are driven by the cluster,
        not the per-node injector, and do not count."""
        return self.disk_fault_rate_per_hour > 0 or bool(self.fail_disk_ids)

    @property
    def node_outages_enabled(self) -> bool:
        """Whether the spec scripts cluster-level node outages."""
        return bool(self.fail_node_ids)

    def label(self) -> str:
        """Human-readable summary used in benchmark tables."""
        if not self.enabled and not self.node_outages_enabled:
            return "no faults"
        parts = []
        if self.disk_fault_rate_per_hour > 0:
            parts.append(f"disk {self.disk_fault_rate_per_hour:g}/h")
        if self.fail_disk_ids:
            parts.append(f"fail {len(self.fail_disk_ids)} disk(s)")
        if self.fail_node_ids:
            text = f"fail {len(self.fail_node_ids)} node(s)"
            if self.fail_node_stagger_s > 0:
                text += f" @{self.fail_node_stagger_s:g}s apart"
            if self.node_recover_after_s > 0:
                text += f" +recover {self.node_recover_after_s:g}s"
            parts.append(text)
        return "faults(" + ", ".join(parts) + ")"
