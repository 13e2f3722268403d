"""Config digests of every non-default shape, and the canonical form
rule by rule.

The default shapes are pinned elsewhere (``tests/sim/test_golden_digest.py``,
``tests/faults/test_injection.py``); the cases below pin one shape per
canonical-form rule: a subsystem spec switched on, a nested field
omitted at its default or present off it, a cluster with and without
its optional tiers.  Each digest is also a run-cache key, so a drift
here silently invalidates every cached run of that shape.

Re-record (only for a deliberate cache re-key) with::

    PYTHONPATH=src python -c "import tests.core.test_config_digests as d; d.print_current()"
"""

import pytest

from repro.cluster import ClusterConfig, PlacementSpec, SelfHealSpec
from repro.core.config import MB, SpiffiConfig
from repro.experiments.results import config_digest, config_to_dict
from repro.faults.spec import FaultSpec
from repro.layout import LayoutSpec
from repro.proxy import ProxySpec
from repro.replication import ReplicationSpec
from repro.sharing import SharingSpec
from repro.workload import ArrivalSpec

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

#: name -> config digest, recorded before the canonical form was
#: derived from field declarations (it must not have moved since).
GOLDEN = {
    "proxy": "812a6eab06a1bcdcad1ea7aceba1688c10d3b43080a8665d7d077a85fbee9efa",
    "sharing": "b47c6e442c33b5cd2e2b92e6ae89c9ff5d59a9c0bc63097ea5248eac16aca247",
    "replication": "d1643be52bc8acf323551bf4fa8c57295172a873ec9075c339b47d0400bf723d",
    "open_workload": "f32b978563066af20b4988493ebece86498ea11105c009fc167ab262b3ae75a5",
    "faults": "64e66255e9e5ad88499a272e22121c1480ac6dfc1d8f9f7d9424ca9a80bd2e6f",
    "cluster_replicas_0": "6a12db9e2644971bee9de7d1ab94321ea5cd5f8536bc97ee7a8940ea58ece702",
    "cluster_replicas_2": "5d078eca412be93777b7fe52f897b80bd4bc3d3e784a0eb87473f765b77dc460",
    "cluster_staggered": "da9265a79cec08f7031db69133c0207bea10537da86e854e8d5408a9a22941b6",
    "cluster_self_heal": "9818cceb1be315fcf51005637d2b73c35f071de994e9c0bb0a8ae38106f001d4",
    "cluster_proxy": "8a9670dea8c807c776cc6ae598ec8240ef246df7b4f9aa67f7fb3aeaa11e36a2",
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_config_digest_pinned(name):
    assert config_digest(SHAPES[name]()) == GOLDEN[name]


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


def print_current() -> None:  # pragma: no cover - re-recording helper
    for name in sorted(SHAPES):
        print(f'    "{name}": "{config_digest(SHAPES[name]())}",')
