"""Router policies: static behaviour and whole-run determinism.

The acceptance bar for the cluster front door is that the session→node
assignment is a pure function of the config: two fresh clusters built
from the same ``ClusterConfig`` must produce identical routing logs,
per policy, and a cluster run must be bit-identical under the serial
executor and the process pool (same seed + same ``--jobs``).
"""

import pytest

from repro.cluster import PlacementSpec, RouterSpec, SpiffiCluster, router_names
from repro.cluster.routing import register_router
from repro.experiments.runner import (
    ProcessExecutor,
    Runner,
    RunRequest,
    SerialExecutor,
)
from tests.cluster.conftest import small_cluster

POLICIES = ("least-loaded", "locality")


class TestSpec:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown router"):
            RouterSpec("round-robin")

    def test_registry(self):
        assert set(POLICIES) <= set(router_names())
        with pytest.raises(ValueError, match="non-empty string"):
            register_router("", lambda spec, cluster: None)


class TestStaticRouting:
    """Routing decisions on a built (never run) cluster."""

    def build(self, policy: str, placement: str = "replicated") -> SpiffiCluster:
        return SpiffiCluster(
            small_cluster(
                placement=PlacementSpec(placement), routing=RouterSpec(policy)
            )
        )

    def test_least_loaded_breaks_ties_by_index(self):
        cluster = self.build("least-loaded")
        assert cluster.router.route(0) == 0

    def test_least_loaded_prefers_the_idle_member(self):
        cluster = self.build("least-loaded")
        cluster.members[0].admission.active = 5
        assert cluster.router.route(0) == 1

    def test_locality_serves_from_the_primary(self):
        cluster = self.build("locality")
        for title in range(cluster.placement.catalog_size):
            assert cluster.router.route(title) == cluster.placement.primary(title)

    def test_locality_falls_back_when_primary_is_down(self):
        cluster = self.build("locality")
        title = next(
            t
            for t in range(cluster.placement.catalog_size)
            if cluster.placement.primary(t) == 0
        )
        cluster._fail_node(0)
        assert cluster.router.route(title) == 1

    def test_no_surviving_host_routes_none(self):
        cluster = self.build("least-loaded")
        cluster._fail_node(0)
        cluster._fail_node(1)
        assert cluster.router.route(0) is None

    def test_partitioned_placement_constrains_candidates(self):
        cluster = self.build("least-loaded", placement="partitioned")
        per = cluster.config.node.video_count
        assert cluster.router.route(0) == 0
        assert cluster.router.route(per) == 1


class TestDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_assignments_identical_across_fresh_builds(self, policy):
        config = small_cluster(routing=RouterSpec(policy))

        def run_once():
            cluster = SpiffiCluster(config)
            cluster.run()
            return list(cluster.workload.assignments)

        first, second = run_once(), run_once()
        assert first, "the workload routed no sessions"
        assert first == second
        assert {node for _, _, node in first} == {0, 1}

    def test_run_identical_under_serial_and_process_executors(self):
        config = small_cluster()

        def run_with(executor):
            runner = Runner(executor=executor, cache=None)
            try:
                outcome = runner.run_batch([RunRequest(config)])[0]
            finally:
                executor.close()
            assert not outcome.failed, outcome.error
            return outcome.metrics

        serial = run_with(SerialExecutor())
        pooled = run_with(ProcessExecutor(jobs=2))
        assert serial.deterministic_dict() == pooled.deterministic_dict()
