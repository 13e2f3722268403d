"""Catalog placement schemes: host maps, local ids, and the registry."""

import pytest

from repro.cluster import PlacementSpec, placement_names, register_placement
from repro.cluster.placement import CatalogPlacement


class TestPartitioned:
    def test_distinct_slices(self):
        placement = PlacementSpec("partitioned").build(2, 4)
        assert placement.catalog_size == 8
        for title in range(8):
            assert placement.nodes_for(title) == (title // 4,)
            assert placement.primary(title) == title // 4
            assert placement.replication_of(title) == 1

    def test_local_ids_are_the_slice_offsets(self):
        placement = PlacementSpec("partitioned").build(2, 4)
        for title in range(8):
            assert placement.local_id(title, title // 4) == title % 4
        assert placement.local_count(0) == 4
        assert placement.local_count(1) == 4

    def test_unhosted_title_raises(self):
        placement = PlacementSpec("partitioned").build(2, 4)
        with pytest.raises(ValueError, match="not hosted"):
            placement.local_id(0, 1)


class TestReplicated:
    def test_every_node_hosts_everything(self):
        placement = PlacementSpec("replicated").build(3, 4)
        assert placement.catalog_size == 4
        for title in range(4):
            assert sorted(placement.nodes_for(title)) == [0, 1, 2]
            assert placement.replication_of(title) == 3

    def test_primaries_rotate(self):
        placement = PlacementSpec("replicated").build(3, 4)
        assert [placement.primary(t) for t in range(4)] == [0, 1, 2, 0]

    def test_local_ids_identical_everywhere(self):
        placement = PlacementSpec("replicated").build(3, 4)
        for title in range(4):
            for node in range(3):
                assert placement.local_id(title, node) == title
        assert all(placement.local_count(n) == 4 for n in range(3))


class TestSpec:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown placement"):
            PlacementSpec("sharded")

    def test_videos_per_node_validated(self):
        with pytest.raises(ValueError, match="at least one video"):
            PlacementSpec("partitioned").build(2, 0)

    def test_labels(self):
        assert PlacementSpec("replicated").label() == "replicated"
        spec = PlacementSpec("chained-declustered", replicas=2)
        assert spec.label() == "chained-declustered(2)"


class TestRegistry:
    def test_builtins_registered(self):
        names = placement_names()
        assert {"partitioned", "replicated", "chained-declustered"} <= set(names)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            register_placement("", lambda spec, nodes, per: None)

    def test_third_party_scheme_pluggable(self):
        def everything_on_node_zero(spec, nodes, per):
            return CatalogPlacement(nodes, [(0,) for _ in range(per)])

        register_placement("test-node-zero", everything_on_node_zero)
        placement = PlacementSpec("test-node-zero").build(3, 2)
        assert placement.local_count(0) == 2
        assert placement.local_count(1) == 0


class TestCatalogPlacement:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="at least one node"):
            CatalogPlacement(0, [])
        with pytest.raises(ValueError, match="no hosting node"):
            CatalogPlacement(2, [()])
        with pytest.raises(ValueError, match="outside"):
            CatalogPlacement(2, [(2,)])
