"""Config digests of every non-default shape, and the canonical form
rule by rule.

The default shapes are pinned by the ``midsize`` and ``prefault`` rows
of ``tests/pins.json``; the ``shape/<name>`` rows pin one shape per
canonical-form rule: a subsystem spec switched on, a nested field
omitted at its default or present off it, a cluster with and without
its optional tiers.  Each digest is also a run-cache key, so a drift
here silently invalidates every cached run of that shape.  Re-pin one
only for a deliberate cache re-key (``--pins=write``, tests/conftest.py).
"""

import pytest

from repro.cluster import ClusterConfig, PlacementSpec, SelfHealSpec
from repro.core.config import MB, SpiffiConfig
from repro.experiments.results import config_to_dict
from repro.faults.spec import FaultSpec
from repro.layout import LayoutSpec
from repro.proxy import ProxySpec
from repro.replication import ReplicationSpec
from repro.sharing import SharingSpec
from repro.workload import ArrivalSpec
from tests import pins

PROXY = ProxySpec(prefix_s=10.0, memory_bytes=24 * MB)
OPEN = ArrivalSpec(process="poisson", rate_per_s=2.0, mean_view_duration_s=30.0)
DISK_FAULTS = FaultSpec(disk_fault_rate_per_hour=30.0, fail_disk_ids=(1,))
ONE_OUTAGE = FaultSpec(fail_node_ids=(1,), fail_nodes_at_s=11.0)
STAGGERED = FaultSpec(
    fail_node_ids=(1, 2), fail_nodes_at_s=11.0, fail_node_stagger_s=8.0
)
CHAINED = PlacementSpec("chained-declustered", replicas=2)


def member(**overrides) -> SpiffiConfig:
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=16,
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=64 * MB,
        start_spread_s=2.0,
        warmup_grace_s=4.0,
        measure_s=30.0,
        seed=7,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


def cluster(**overrides) -> ClusterConfig:
    defaults = dict(node=member(), nodes=3, workload=OPEN)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


SHAPES = {
    "proxy": lambda: member(proxy=PROXY),
    "sharing": lambda: member(sharing=SharingSpec("batch+chain")),
    "replication": lambda: member(
        layout=LayoutSpec("chained"), replication=ReplicationSpec(factor=2)
    ),
    "open_workload": lambda: member(workload=OPEN),
    "faults": lambda: member(faults=DISK_FAULTS),
    "cluster_replicas_0": lambda: cluster(faults=ONE_OUTAGE),
    "cluster_replicas_2": lambda: cluster(placement=CHAINED, faults=ONE_OUTAGE),
    "cluster_staggered": lambda: cluster(placement=CHAINED, faults=STAGGERED),
    "cluster_self_heal": lambda: cluster(
        placement=CHAINED, faults=ONE_OUTAGE, self_heal=SelfHealSpec(rebuild=True)
    ),
    "cluster_proxy": lambda: cluster(proxy=PROXY),
}

@pytest.mark.parametrize("name", sorted(SHAPES))
def test_config_digest_pinned(name):
    # Rows ``shape/<name>`` of tests/pins.json were recorded before the
    # canonical form was derived from field declarations (they must not
    # have moved since).
    pins.check_config(f"shape/{name}", SHAPES[name]())


class TestSystemForm:
    def test_default_form_lists_every_field_with_nested_dicts(self):
        data = config_to_dict(SpiffiConfig())
        assert data["cpu"]["costs"]["start_io"] == 20000
        assert data["drive"]["cache_contexts"] == 8
        assert data["layout"] == "striped"
        assert data["replacement_policy"] == "global_lru"
        assert data["piggyback_window_s"] == 0.0
        for inert in ("faults", "replication", "workload", "proxy", "sharing"):
            assert inert not in data

    def test_active_specs_appear(self):
        assert config_to_dict(SHAPES["proxy"]())["proxy"] == {
            "prefix_s": 10.0,
            "memory_bytes": 24 * MB,
            "replacement": "global_lru",
            "policy": "hottest",
        }
        sharing = config_to_dict(SHAPES["sharing"]())["sharing"]
        assert sharing["policy"] == "batch+chain"
        assert config_to_dict(SHAPES["replication"]())["replication"]["factor"] == 2
        workload = config_to_dict(SHAPES["open_workload"]())["workload"]
        assert (workload["process"], workload["rate_per_s"]) == ("poisson", 2.0)

    def test_zero_stagger_is_omitted_from_active_faults(self):
        faults = config_to_dict(SHAPES["faults"]())["faults"]
        assert faults["fail_disk_ids"] == (1,)
        assert "fail_node_stagger_s" not in faults


class TestClusterForm:
    def test_namespaced_with_schema_marker_and_member_form(self):
        data = config_to_dict(SHAPES["cluster_replicas_0"]())
        assert list(data) == ["cluster"]
        payload = data["cluster"]
        assert payload["schema"] == 2
        assert payload["seed"] == 7
        assert payload["node"] == config_to_dict(member())

    def test_workload_and_faults_always_present(self):
        payload = config_to_dict(
            ClusterConfig(node=member(terminals=1), nodes=1)
        )["cluster"]
        assert payload["workload"]["process"] == "closed"
        assert payload["faults"]["fail_node_ids"] == ()
        assert "fail_node_stagger_s" not in payload["faults"]
        for inert in ("proxy", "self_heal"):
            assert inert not in payload

    def test_replicas_and_stagger_appear_only_when_set(self):
        plain = config_to_dict(SHAPES["cluster_replicas_0"]())["cluster"]
        assert "replicas" not in plain["placement"]
        chained = config_to_dict(SHAPES["cluster_replicas_2"]())["cluster"]
        assert chained["placement"]["replicas"] == 2
        staggered = config_to_dict(SHAPES["cluster_staggered"]())["cluster"]
        assert staggered["faults"]["fail_node_stagger_s"] == 8.0

    def test_optional_tiers_appear_when_enabled(self):
        heal = config_to_dict(SHAPES["cluster_self_heal"]())["cluster"]
        assert heal["self_heal"]["rebuild"] is True
        proxy = config_to_dict(SHAPES["cluster_proxy"]())["cluster"]
        assert proxy["proxy"]["replacement"] == "global_lru"
