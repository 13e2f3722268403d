"""One session lifecycle: standalone and cluster runs pinned across the merge.

The standalone server and the cluster used to run two hand-written
copies of the customer lifecycle (arrive, balk or queue or renege,
batch or slot, launch, view or churn, release).  They now share one
``SessionGenerator`` that drives a front door: the standalone server is
the one-member door that never fails.  The pins were recorded with
the two separate copies, one row ``lifecycle/<name>`` of
``tests/pins.json`` per config.  Every config must reproduce its row's
config digest, behaviour digest and event count exactly.

Each config also asserts the counters of the path it exists to cover,
so that a config cannot silently stop exercising it.  ``queued-failover``
is the resilience double-outage shape: sessions queued on a member that
dies fail over before their first admission and first play on a later
attempt, so their viewing budget must be drawn at first playback.
"""

import pytest

from repro import MB, SpiffiConfig
from repro.cluster import ClusterConfig, PlacementSpec, RouterSpec, SelfHealSpec
from repro.faults.spec import FaultSpec
from repro.proxy import ProxySpec
from repro.server.admission import AdmissionSpec
from repro.sharing import SharingSpec
from repro.workload import ArrivalSpec
from tests import pins

CHAINED = PlacementSpec("chained-declustered", replicas=2)
BANDWIDTH = AdmissionSpec("bandwidth", headroom=0.5)


def open_node(**overrides) -> SpiffiConfig:
    """A small open-workload server: 2 nodes x 2 disks, 1-minute titles."""
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=1,  # ignored: the workload is open
        videos_per_disk=2,
        video_length_s=60.0,
        server_memory_bytes=64 * MB,
        start_spread_s=2.0,
        warmup_grace_s=4.0,
        measure_s=30.0,
        seed=7,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


def arrivals(rate_per_s: float, **overrides) -> ArrivalSpec:
    defaults = dict(
        process="poisson",
        rate_per_s=rate_per_s,
        mean_view_duration_s=20.0,
        queue_limit=8,
        mean_patience_s=5.0,
    )
    defaults.update(overrides)
    return ArrivalSpec(**defaults)


def member(**overrides) -> SpiffiConfig:
    """A cluster member: one node x 2 disks, 10-minute titles."""
    defaults = dict(
        nodes=1,
        disks_per_node=2,
        terminals=1,
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=64 * MB,
        zipf_skew=0.2,
        start_spread_s=2.0,
        warmup_grace_s=4.0,
        measure_s=60.0,
        seed=7,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


def short_member() -> SpiffiConfig:
    """The resilience member: 4 s titles, skewed demand, tight headroom."""
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=1,
        videos_per_disk=2,
        video_length_s=4.0,
        server_memory_bytes=64 * MB,
        zipf_skew=0.9,
        admission=BANDWIDTH,
        start_spread_s=2.0,
        warmup_grace_s=4.0,
        measure_s=24.0,
    )


def pair(placement="replicated", routing="least-loaded", **overrides):
    """Two members; node 1 drops 30 s in and rejoins 20 s later."""
    defaults = dict(
        node=member(),
        nodes=2,
        placement=PlacementSpec(placement),
        routing=RouterSpec(routing),
        workload=arrivals(1.0, mean_view_duration_s=30.0, mean_patience_s=10.0),
        faults=FaultSpec(
            fail_node_ids=(1,), fail_nodes_at_s=30.0, node_recover_after_s=20.0
        ),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def trio(faults: FaultSpec, self_heal: SelfHealSpec, rate_per_s: float):
    """Three chained-declustered(2) members of the resilience shape."""
    return ClusterConfig(
        node=short_member(),
        nodes=3,
        placement=CHAINED,
        routing=RouterSpec("locality"),
        workload=arrivals(
            rate_per_s,
            mean_view_duration_s=30.0,
            queue_limit=4,
            mean_patience_s=10.0,
        ),
        faults=faults,
        self_heal=self_heal,
    )


DOUBLE = FaultSpec(
    fail_node_ids=(1, 2), fail_nodes_at_s=11.0, fail_node_stagger_s=8.0
)
RECOVERING = FaultSpec(
    fail_node_ids=(1,), fail_nodes_at_s=11.0, node_recover_after_s=8.0
)


def sessions(system):
    return system.workload.stats


def sharing(system):
    return system.sharing.stats


#: name -> (config builder, scenario check on the finished system).
CONFIGS = {
    # --- standalone server ---------------------------------------------
    "balk-renege": (
        lambda: open_node(
            admission=BANDWIDTH,
            workload=arrivals(4.0, mean_view_duration_s=30.0, queue_limit=4),
        ),
        lambda s: sessions(s).balked > 0 and sessions(s).reneged > 0,
    ),
    "full-views": (
        lambda: open_node(
            video_length_s=10.0,
            admission=AdmissionSpec("fixed", max_streams=6),
            workload=arrivals(
                1.0, mean_view_duration_s=0.0, mean_patience_s=0.0, queue_limit=64
            ),
        ),
        lambda s: (
            sessions(s).completed > 0
            and sessions(s).abandoned == 0
            and sessions(s).reneged == 0
            and s.admission.queued > 0
        ),
    ),
    "batch": (
        lambda: open_node(
            videos_per_disk=1,
            sharing=SharingSpec("batch", window_s=2.0),
            workload=arrivals(2.0),
        ),
        lambda s: sharing(s).batch_followers > 0,
    ),
    "capped-batch": (
        lambda: open_node(
            videos_per_disk=1,
            admission=AdmissionSpec("fixed", max_streams=3),
            sharing=SharingSpec("batch", window_s=4.0),
            workload=arrivals(1.2, queue_limit=16, mean_patience_s=1.5),
        ),
        lambda s: sharing(s).queue_converts > 0 and sharing(s).batch_withdrawn > 0,
    ),
    "proxy": (
        lambda: open_node(
            proxy=ProxySpec(prefix_s=20.0, memory_bytes=48 * MB),
            workload=arrivals(2.0),
        ),
        lambda s: s.proxy_runtime.stats.hits > 0,
    ),
    # --- cluster ---------------------------------------------------------
    "replicated-failover": (
        lambda: pair(),
        lambda s: sessions(s).failed_over > 0 and s.stats.node_recoveries == 1,
    ),
    "partitioned-loss": (
        lambda: pair("partitioned", "locality"),
        lambda s: sessions(s).lost > 0,
    ),
    "heal-spill": (
        lambda: trio(
            DOUBLE,
            SelfHealSpec(rebuild=True, placement_aware_admission=True),
            16.0,
        ),
        lambda s: sessions(s).spilled > 0 and s.stats.titles_rebuilt > 0,
    ),
    "heal-rejoin": (
        lambda: trio(
            RECOVERING,
            SelfHealSpec(rebuild=True, rejoin_resync_fraction=0.05),
            6.0,
        ),
        lambda s: s.stats.rejoin_resyncs > 0 and sessions(s).failed_over > 0,
    ),
    "proxy-failover": (
        lambda: pair(proxy=ProxySpec(prefix_s=20.0, memory_bytes=48 * MB)),
        lambda s: sessions(s).failed_over > 0 and s.proxy_runtime.stats.hits > 0,
    ),
    "queued-failover": (
        lambda: trio(DOUBLE, SelfHealSpec(), 12.0),
        lambda s: sessions(s).failed_over > 0 and sessions(s).balked > 0,
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_lifecycle_matches_the_two_copy_goldens(name):
    build, exercised = CONFIGS[name]
    pins.check_config(f"lifecycle/{name}", build())
    system, metrics = pins.run_system(build())
    assert exercised(system), f"{name} no longer exercises its path"
    pins.check(f"lifecycle/{name}", metrics)
