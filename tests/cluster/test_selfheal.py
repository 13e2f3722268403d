"""Cluster self-healing: the spec, the build-time rebuild plan, and the
live re-replication / rejoin / spill behaviour.

The simulated scenarios run a 3-node chained-declustered(2) cluster of
small short-video members (8 titles each, 4 s / ~2 MB per title), so a
full node rebuild moves ~32 MB and finishes well inside the measurement
window at the 4 MB/s default cap.  The 12-title catalog has hosts
``(t % 3, (t + 1) % 3)``.  Node 1 fails 5 s into measurement; the
staggered double-outage script fails node 2 another 8 s later — after
the rebuild window, so healing decides whether the second failure loses
titles.
"""

import dataclasses
import functools

import pytest

from repro.cluster import (
    ClusterConfig,
    PlacementSpec,
    RebuildPlan,
    RouterSpec,
    SelfHealSpec,
    SpiffiCluster,
    run_cluster,
)
from repro.core.config import MB, SpiffiConfig
from repro.experiments.results import config_digest, config_to_dict
from repro.faults.spec import FaultSpec
from repro.server.admission import AdmissionSpec
from repro.telemetry import trace as trace_events
from repro.workload import ArrivalSpec

CHAINED = PlacementSpec("chained-declustered", replicas=2)

#: Node 1 dies 5 s into the measurement window (warmup is 2 + 4 = 6 s).
FAIL_AT = 11.0
#: The staggered second outage trails the first by two rebuild windows.
STAGGER = 8.0

SINGLE = FaultSpec(fail_node_ids=(1,), fail_nodes_at_s=FAIL_AT)
DOUBLE = FaultSpec(
    fail_node_ids=(1, 2), fail_nodes_at_s=FAIL_AT, fail_node_stagger_s=STAGGER
)
RECOVERING = FaultSpec(
    fail_node_ids=(1,), fail_nodes_at_s=FAIL_AT, node_recover_after_s=8.0
)

HEAL = SelfHealSpec(rebuild=True)


def short_member(**overrides) -> SpiffiConfig:
    """A member with a 4 s-video catalog: 2 MB per title, so rebuilds
    complete quickly, plus skewed demand and tight admission headroom
    so outage survivors actually queue (what spill needs)."""
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=1,  # ignored: the cluster workload is open
        videos_per_disk=2,
        video_length_s=4.0,
        server_memory_bytes=64 * MB,
        zipf_skew=0.9,
        admission=AdmissionSpec("bandwidth", headroom=0.5),
        start_spread_s=2.0,
        warmup_grace_s=4.0,
        measure_s=24.0,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


def heal_workload(rate_per_s=6.0) -> ArrivalSpec:
    return ArrivalSpec(
        process="poisson",
        rate_per_s=rate_per_s,
        mean_view_duration_s=30.0,
        queue_limit=4,
        mean_patience_s=10.0,
        startup_slo_s=10.0,
    )


def heal_config(
    faults=SINGLE,
    self_heal=HEAL,
    placement=CHAINED,
    rate_per_s=6.0,
) -> ClusterConfig:
    return ClusterConfig(
        node=short_member(),
        nodes=3,
        placement=placement,
        routing=RouterSpec("locality"),
        workload=heal_workload(rate_per_s),
        faults=faults,
        self_heal=self_heal,
    )


@functools.lru_cache(maxsize=None)
def run_cached(config: ClusterConfig):
    """One live cluster per config, shared across this module's tests."""
    cluster = SpiffiCluster(config)
    return cluster, cluster.run()


class TestSelfHealSpec:
    def test_default_spec_is_inert(self):
        spec = SelfHealSpec()
        assert not spec.enabled
        assert spec.label() == "no self-heal"

    def test_either_knob_enables(self):
        assert SelfHealSpec(rebuild=True).enabled
        assert SelfHealSpec(placement_aware_admission=True).enabled

    def test_label_names_the_active_knobs(self):
        spec = SelfHealSpec(rebuild=True, placement_aware_admission=True)
        assert spec.label() == "heal(rebuild@4MB/s, spill)"

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("inf")])
    def test_bad_bandwidth_is_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="rebuild_bandwidth_bytes_per_s"):
            SelfHealSpec(rebuild_bandwidth_bytes_per_s=bandwidth)

    @pytest.mark.parametrize("fraction", [-0.1, 1.1])
    def test_resync_fraction_outside_unit_interval_is_rejected(self, fraction):
        with pytest.raises(ValueError, match="rejoin_resync_fraction"):
            SelfHealSpec(rejoin_resync_fraction=fraction)

    def test_spec_is_immutable(self):
        with pytest.raises(AttributeError):
            SelfHealSpec().rebuild = True


class TestRebuildPlan:
    """Against the 3-node chained(2) placement over 4-video members:
    6 titles, hosts ``(t % 3, (t + 1) % 3)``, 4 titles per node."""

    def placement(self):
        return CHAINED.build(3, 4)

    def test_single_outage_replans_every_hosted_title(self):
        plan = RebuildPlan(self.placement(), (1,))
        work = plan.per_dead[1]
        assert [item.title for item in work] == [0, 1, 3, 4]
        # The destination is always the one non-host survivor.
        assert [item.dest for item in work] == [2, 0, 2, 0]
        assert plan.total_titles == 4

    def test_spare_slots_sit_past_the_built_catalog(self):
        plan = RebuildPlan(self.placement(), (1,))
        assert plan.spares == [2, 0, 2]
        # Each node stores 4 videos; spares take local ids 4, 5.
        locals_per_dest = {}
        for item in plan.per_dead[1]:
            locals_per_dest.setdefault(item.dest, []).append(item.dest_local)
        assert locals_per_dest == {0: [4, 5], 2: [4, 5]}

    def test_double_outage_plans_each_title_once(self):
        plan = RebuildPlan(self.placement(), (1, 2))
        # Titles hosted on both doomed nodes plan once, under the first
        # death; titles whose only survivor-candidate set is empty
        # (a surviving node already hosts them) are skipped.
        assert [item.title for item in plan.per_dead[1]] == [1, 4]
        assert plan.per_dead[2] == []
        assert plan.spares == [2, 0, 0]

    def test_fully_replicated_placement_needs_no_plan(self):
        placement = PlacementSpec("replicated").build(3, 4)
        plan = RebuildPlan(placement, (1,))
        assert plan.total_titles == 0
        assert plan.spares == [0, 0, 0]

    def test_partitioned_placement_still_reserves_destinations(self):
        # Plan-time optimism: destinations exist, and whether a source
        # survives is decided when the copy runs.
        plan = RebuildPlan(PlacementSpec("partitioned").build(3, 4), (1,))
        assert plan.total_titles == 4


class TestConfigValidation:
    def test_rebuild_without_scripted_outages_is_rejected(self):
        with pytest.raises(ValueError, match="fail_node_ids is empty"):
            heal_config(faults=FaultSpec())

    def test_self_healing_needs_a_multi_node_cluster(self):
        with pytest.raises(ValueError, match="multi-node"):
            ClusterConfig(
                node=short_member(),
                self_heal=SelfHealSpec(placement_aware_admission=True),
            )

    def test_self_heal_must_be_a_spec(self):
        with pytest.raises(TypeError, match="SelfHealSpec"):
            heal_config(self_heal={"rebuild": True})

    def test_describe_names_the_heal_spec_only_when_enabled(self):
        assert "heal(rebuild@4MB/s)" in heal_config().describe()
        assert "heal" not in heal_config(
            faults=SINGLE, self_heal=SelfHealSpec()
        ).describe()


class TestCacheCanonicalisation:
    def test_default_spec_leaves_the_cache_dict_untouched(self):
        payload = config_to_dict(
            heal_config(self_heal=SelfHealSpec())
        )["cluster"]
        assert "self_heal" not in payload
        assert "fail_node_stagger_s" not in payload["faults"]

    def test_default_replicas_are_omitted(self):
        config = ClusterConfig(
            node=short_member(), nodes=2, workload=heal_workload()
        )
        payload = config_to_dict(config)["cluster"]
        assert "replicas" not in payload["placement"]
        replicated = config_to_dict(heal_config())["cluster"]
        assert replicated["placement"]["replicas"] == 2

    def test_stagger_appears_only_when_nonzero(self):
        payload = config_to_dict(heal_config(faults=DOUBLE))["cluster"]
        assert payload["faults"]["fail_node_stagger_s"] == STAGGER

    def test_enabled_spec_changes_the_digest(self):
        inert = heal_config(faults=SINGLE, self_heal=SelfHealSpec())
        healing = heal_config(faults=SINGLE)
        assert "self_heal" in config_to_dict(healing)["cluster"]
        assert config_digest(inert) != config_digest(healing)


class TestInertDefault:
    def test_no_manager_no_spares_no_spill(self):
        cluster = SpiffiCluster(
            heal_config(faults=SINGLE, self_heal=SelfHealSpec())
        )
        assert cluster.rebuild_manager is None
        assert len(cluster.members[0].library) == 8
        load = cluster.rebuild_load(0)
        assert load == 0 and isinstance(load, int)
        assert cluster.spill_target(0, 0, 4) is None


class TestRebuildRestoresDegree:
    def test_every_title_regains_two_surviving_hosts(self):
        cluster, metrics = run_cached(heal_config())
        placement = cluster.placement
        for title in range(placement.catalog_size):
            survivors = [n for n in placement.nodes_for(title) if n != 1]
            assert len(survivors) >= 2
        assert metrics.node_titles_rebuilt == 8
        assert metrics.node_titles_unrecoverable == 0
        assert cluster.rebuild_manager.pending == 0

    def test_restore_time_tracks_the_bandwidth_cap(self):
        _, metrics = run_cached(heal_config())
        cap = HEAL.rebuild_bandwidth_bytes_per_s
        predicted = metrics.node_rebuild_bytes / cap
        assert metrics.node_rebuild_bytes > 0
        assert predicted <= metrics.replication_restore_s <= 1.5 * predicted

    def test_spare_slots_extend_the_library_without_perturbing_it(self):
        healing = SpiffiCluster(heal_config())
        baseline = SpiffiCluster(
            heal_config(faults=SINGLE, self_heal=SelfHealSpec())
        )
        # Nodes 0 and 2 split the dead member's 8 titles: 4 spares
        # each, while the doomed member itself is built unchanged.
        assert healing.heal_plan.spares == [4, 0, 4]
        for built, plain, spares in zip(
            healing.members, baseline.members, healing.heal_plan.spares
        ):
            assert len(built.library) == len(plain.library) + spares
            for mine, theirs in zip(built.library, plain.library):
                assert mine.total_bytes == theirs.total_bytes
                assert mine.frame_count == theirs.frame_count


class TestSeededReplicaMismatch:
    def test_rebuild_handles_per_member_content_seeds(self):
        # Replica content is seeded per member, so a title's copies can
        # hold different block counts on different members; seed 7
        # produces a source copy shorter than its destination slot
        # (regression: the rebuild read address must clamp into the
        # source video instead of raising).
        config = heal_config(faults=RECOVERING).replace(
            node=short_member(seed=7)
        )
        metrics = run_cluster(config)
        assert metrics.node_titles_rebuilt == 8
        assert metrics.node_titles_unrecoverable == 0
        assert metrics.rejoin_resyncs == 1


class TestDoubleOutage:
    def test_rebuild_saves_strictly_more_sessions(self):
        _, unhealed = run_cached(
            heal_config(faults=DOUBLE, self_heal=SelfHealSpec())
        )
        _, healed = run_cached(heal_config(faults=DOUBLE))
        assert unhealed.lost_sessions > 0
        assert healed.lost_sessions < unhealed.lost_sessions
        assert healed.node_titles_rebuilt == 4

    def test_rebuilt_copies_enter_routing(self):
        cluster, _ = run_cached(heal_config(faults=DOUBLE))
        # The titles hosted only on the doomed pair as built now also
        # live on node 0, so the double outage left them served.
        for title in (1, 4, 7, 10):
            assert 0 in cluster.placement.nodes_for(title)


class TestPartitionedRebuild:
    def test_no_surviving_source_counts_unrecoverable(self):
        _, metrics = run_cached(
            heal_config(placement=PlacementSpec("partitioned"))
        )
        assert metrics.node_titles_rebuilt == 0
        assert metrics.node_titles_unrecoverable == 8
        assert metrics.replication_restore_s == 0.0


class TestRejoin:
    def test_recovered_member_resyncs_before_reentering(self):
        cluster, metrics = run_cached(heal_config(faults=RECOVERING))
        assert metrics.rejoin_resyncs == 1
        assert metrics.rejoin_resync_bytes > 0
        assert cluster.node_available(1)
        assert cluster.health.rank(1) == 0

    def test_zero_fraction_keeps_the_instant_flip(self):
        spec = SelfHealSpec(rebuild=True, rejoin_resync_fraction=0.0)
        cluster, metrics = run_cached(
            heal_config(faults=RECOVERING, self_heal=spec)
        )
        assert metrics.rejoin_resyncs == 0
        assert metrics.rejoin_resync_bytes == 0
        assert cluster.node_available(1)


class TestSpill:
    def test_placement_aware_admission_spills_instead_of_balking(self):
        # An overload rate: the routed member's queue is full while
        # another replica holder still has room, which is the one
        # situation the spill path exists for.
        spec = SelfHealSpec(rebuild=True, placement_aware_admission=True)
        _, spilling = run_cached(
            heal_config(faults=DOUBLE, self_heal=spec, rate_per_s=16.0)
        )
        _, plain = run_cached(heal_config(faults=DOUBLE, rate_per_s=16.0))
        assert spilling.spilled_sessions > 0
        assert plain.spilled_sessions == 0


class TestTracing:
    def test_rebuild_and_rejoin_events_are_recorded(self):
        cluster = SpiffiCluster(heal_config(faults=RECOVERING))
        recorder = cluster.enable_tracing()
        cluster.run()
        kinds = {event.kind for event in recorder.events()}
        assert trace_events.CLUSTER_REBUILD_START in kinds
        assert trace_events.CLUSTER_REBUILD_TITLE in kinds
        assert trace_events.CLUSTER_REBUILD_END in kinds
        assert trace_events.CLUSTER_REJOIN_START in kinds
        assert trace_events.CLUSTER_REJOIN_END in kinds

    def test_one_recorder_covers_the_door_and_every_member(self):
        member_faults = FaultSpec(
            disk_fault_rate_per_hour=720.0,
            slow_weight=1.0,
            outage_weight=0.0,
            fail_weight=0.0,
        )
        config = dataclasses.replace(
            heal_config(faults=RECOVERING), node=short_member(faults=member_faults)
        )
        cluster = SpiffiCluster(config)
        recorder = cluster.enable_tracing()
        traced = [c for c in cluster.components() if hasattr(c, "trace")]
        assert all(c.trace is recorder for c in traced)
        assert {cluster.workload, cluster.health, cluster.rebuild_manager} <= set(traced)
        assert all(member.faults in traced for member in cluster.members)
        cluster.run()
        kinds = set(recorder.counts)
        assert {trace_events.SESSION_ARRIVE, trace_events.SESSION_ADMIT} <= kinds
        assert trace_events.HEALTH_CHANGE in kinds
        assert trace_events.CLUSTER_REBUILD_START in kinds
        assert trace_events.FAULT_START in kinds  # from the members' disks


class TestDeterminism:
    def test_healing_runs_reproduce_bit_identically(self):
        config = heal_config(faults=DOUBLE)
        first = run_cluster(config)
        second = run_cluster(config)
        assert first.deterministic_dict() == second.deterministic_dict()
