"""ClusterConfig validation, derived quantities, and cache identity."""

import pytest

from repro.cluster import ClusterConfig, PlacementSpec, RouterSpec
from repro.core.config import SpiffiConfig
from repro.experiments.results import config_digest, config_to_dict
from repro.faults.spec import FaultSpec
from repro.workload.spec import ArrivalSpec
from tests.cluster.conftest import open_workload, small_cluster, small_node


class TestValidation:
    def test_defaults_are_the_degenerate_single_node(self):
        config = ClusterConfig()
        assert config.nodes == 1
        assert config.placement.name == "partitioned"
        assert config.routing.name == "least-loaded"
        assert not config.workload.enabled

    def test_component_types_enforced(self):
        with pytest.raises(TypeError, match="SpiffiConfig"):
            ClusterConfig(node="midsize")
        with pytest.raises(TypeError, match="PlacementSpec"):
            ClusterConfig(placement="replicated")
        with pytest.raises(TypeError, match="RouterSpec"):
            ClusterConfig(routing="locality")
        with pytest.raises(TypeError, match="ArrivalSpec"):
            ClusterConfig(workload="poisson")
        with pytest.raises(TypeError, match="FaultSpec"):
            ClusterConfig(faults="none")

    def test_need_at_least_one_node(self):
        with pytest.raises(ValueError, match="at least one node"):
            small_cluster(nodes=0)

    def test_multi_node_requires_open_workload(self):
        with pytest.raises(ValueError, match="open cluster workload"):
            ClusterConfig(node=small_node(), nodes=2)

    def test_member_workload_rejected(self):
        member = small_node(workload=open_workload())
        with pytest.raises(ValueError, match="cluster owns the workload"):
            small_cluster(node=member)

    def test_disk_faults_rejected_at_cluster_level(self):
        with pytest.raises(ValueError, match="node outages"):
            small_cluster(faults=FaultSpec(disk_fault_rate_per_hour=6.0))

    def test_fail_node_ids_must_be_in_range(self):
        faults = FaultSpec(fail_node_ids=(2,), fail_nodes_at_s=10.0)
        with pytest.raises(ValueError, match="out of range"):
            small_cluster(nodes=2, faults=faults)

    def test_at_least_one_member_must_survive(self):
        faults = FaultSpec(fail_node_ids=(0, 1), fail_nodes_at_s=10.0)
        with pytest.raises(ValueError, match="survive"):
            small_cluster(nodes=2, faults=faults)

    def test_placement_shape_validated_at_config_time(self):
        # Two members cannot hold three chained copies of a title; the
        # error must surface when the config is built, not at run time.
        chained = PlacementSpec("chained-declustered", replicas=3)
        with pytest.raises(ValueError, match="exceeds"):
            small_cluster(nodes=2, placement=chained)


class TestDerived:
    def test_seed_adopts_member_seed(self):
        assert small_cluster().seed == small_node().seed
        assert small_cluster(seed=99).seed == 99

    def test_catalog_size_follows_placement(self):
        partitioned = small_cluster(
            placement=PlacementSpec("partitioned"),
            routing=RouterSpec("locality"),
        )
        replicated = small_cluster()
        per_node = small_node().video_count
        assert partitioned.catalog_size == 2 * per_node
        assert replicated.catalog_size == per_node

    def test_timing_mirrors_the_member(self):
        config = small_cluster()
        node = config.node
        assert config.measure_s == node.measure_s
        assert config.warmup_s == node.warmup_s
        assert config.total_sim_time_s == node.total_sim_time_s

    def test_replace(self):
        config = small_cluster()
        bumped = config.replace(nodes=4)
        assert bumped.nodes == 4
        assert config.nodes == 2  # original untouched

    def test_describe_and_label(self):
        config = small_cluster()
        assert "2-node cluster" in config.describe()
        assert config.label() == "2n/replicated/least-loaded"


class TestCacheIdentity:
    def test_cache_dict_is_namespaced(self):
        payload = config_to_dict(small_cluster())
        assert set(payload) == {"cluster"}
        assert payload["cluster"]["nodes"] == 2

    def test_digest_distinct_from_member_digest(self):
        config = small_cluster()
        assert config_digest(config) != config_digest(config.node)

    def test_digest_sensitive_to_cluster_fields(self):
        base = small_cluster()
        assert config_digest(base) != config_digest(
            base.replace(routing=RouterSpec("locality"))
        )
        assert config_digest(base) != config_digest(base.replace(nodes=3))
