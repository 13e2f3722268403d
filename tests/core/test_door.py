"""The front door's component registry, on standalone and cluster runs.

``reset_stats`` is one loop over the registry, so a component is zeroed
at the start of the measurement window because it registered.  These
tests spy on every registered component's ``reset_stats`` during
``run()`` and check two things: each is reset exactly once, and the
registry holds every object the metrics collector reads statistics
from.  For terminals that object is the :class:`TerminalStats` record,
which outlives its terminal: every record, from sessions adopted during
warmup and sessions already finished alike, must be registered.
"""

import collections
import weakref

import pytest

from repro import MB, LayoutSpec, SpiffiConfig, SpiffiSystem
from repro.cluster import (
    ClusterConfig,
    PlacementSpec,
    RouterSpec,
    SelfHealSpec,
    SpiffiCluster,
)
from repro.faults.spec import FaultSpec
from repro.proxy import ProxySpec
from repro.replication import ReplicationSpec
from repro.sharing import SharingSpec
from repro.terminal.terminal import Terminal, TerminalStats
from repro.workload import ArrivalSpec

ARRIVALS = ArrivalSpec(
    process="poisson",
    rate_per_s=2.0,
    mean_view_duration_s=20.0,
    queue_limit=8,
    mean_patience_s=5.0,
)
PROXY = ProxySpec(prefix_s=10.0, memory_bytes=32 * MB)


def server(**overrides) -> SpiffiConfig:
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=8,
        videos_per_disk=2,
        video_length_s=60.0,
        server_memory_bytes=64 * MB,
        start_spread_s=2.0,
        warmup_grace_s=4.0,
        measure_s=10.0,
        seed=7,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


def standalone_closed():
    return SpiffiSystem(server())


def standalone_composed():
    return SpiffiSystem(
        server(
            videos_per_disk=1,
            layout=LayoutSpec("mirrored"),
            replication=ReplicationSpec(factor=2),
            faults=FaultSpec(
                disk_fault_rate_per_hour=720.0,
                slow_weight=0.0,
                outage_weight=1.0,
                fail_weight=0.0,
                mean_outage_duration_s=3.0,
                request_timeout_s=0.5,
            ),
            proxy=PROXY,
            sharing=SharingSpec("batch+chain", window_s=2.0),
            workload=ARRIVALS,
        )
    )


def cluster_closed_one_node():
    return SpiffiCluster(
        ClusterConfig(node=server(), placement=PlacementSpec("partitioned"))
    )


def cluster_open_self_heal_proxy():
    return SpiffiCluster(
        ClusterConfig(
            node=server(video_length_s=4.0, nodes=1),
            nodes=3,
            placement=PlacementSpec("chained-declustered", replicas=2),
            routing=RouterSpec("locality"),
            workload=ARRIVALS,
            faults=FaultSpec(fail_node_ids=(1,), fail_nodes_at_s=8.0),
            self_heal=SelfHealSpec(rebuild=True),
            proxy=PROXY,
        )
    )


SYSTEMS = {
    "standalone-closed": standalone_closed,
    "standalone-composed": standalone_composed,
    "cluster-closed-1node": cluster_closed_one_node,
    "cluster-open-heal-proxy": cluster_open_self_heal_proxy,
}


def stats_sources(door) -> list:
    """Every object :func:`repro.core.metrics.collect_metrics` (and the
    cluster's additions) reads statistics from."""
    sources = [door.qos, door.workload, door.proxy_runtime]
    for member in door.members:
        sources += [member.admission, member.bus, *member.terminal_stats]
        sources += [member.faults, member.replication, member.sharing]
        for node in member.nodes:
            sources += [node.pool, node.cpu, *node.drives, *node.prefetchers]
    if isinstance(door, SpiffiCluster):
        sources += [door.interconnect, door.stats]
    return [source for source in sources if source is not None]


@pytest.fixture(params=sorted(SYSTEMS))
def spied_run(request, monkeypatch):
    """Run one system with every registered class's ``reset_stats``
    counted per instance; yields the system, the counts, the registry
    at the instant of the reset, and every terminal built as a
    ``(weakref to the terminal, its stats record, built before the
    reset)`` triple."""
    built = []
    at_reset = {}
    init = Terminal.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((weakref.ref(self), self.stats, "registry" not in at_reset))

    monkeypatch.setattr(Terminal, "__init__", recording_init)
    system = SYSTEMS[request.param]()
    counts = collections.Counter()
    for cls in {type(c) for c in system.components()} | {TerminalStats}:
        original = cls.reset_stats

        def counted(self, _original=original):
            counts[id(self)] += 1
            _original(self)

        monkeypatch.setattr(cls, "reset_stats", counted)
    reset = system.reset_stats

    def snapshot_then_reset():
        at_reset["registry"] = system.components()
        reset()

    monkeypatch.setattr(system, "reset_stats", snapshot_then_reset)
    system.run()
    return system, counts, at_reset, built


class TestRegistry:
    def test_every_component_is_reset_exactly_once(self, spied_run):
        _, counts, at_reset, _ = spied_run
        registry = at_reset["registry"]
        assert len({id(c) for c in registry}) == len(registry)
        wrong = {type(c).__name__: counts[id(c)] for c in registry if counts[id(c)] != 1}
        assert wrong == {}

    def test_registry_holds_every_collected_statistic(self, spied_run):
        system, _, _, _ = spied_run
        registered = {id(c) for c in system.components()}
        missing = [s for s in stats_sources(system) if id(s) not in registered]
        assert missing == []

    def test_every_terminal_record_is_collected_and_zeroed_once(self, spied_run):
        """Each terminal's record is registered and read by the metrics
        exactly once; one that existed at the reset (a closed terminal,
        or a session adopted during warmup) was zeroed exactly once
        then, and one adopted later never was."""
        system, counts, _, built = spied_run
        records = [stats for _, stats, _ in built]
        collected = [id(s) for m in system.members for s in m.terminal_stats]
        assert sorted(collected) == sorted(id(s) for s in records)
        registered = {id(c) for c in system.components()}
        assert all(id(s) in registered for s in records)
        assert any(before for _, _, before in built)
        assert [counts[id(s)] for _, s, before in built] == [
            1 if before else 0 for _, _, before in built
        ]
        if system.workload is not None:
            # Open: finished sessions' terminals are gone; their records
            # stay registered and collected.
            finished = [stats for ref, stats, _ in built if ref() is None]
            assert finished
            assert system.collect_metrics(system.config.measure_s).terminals == len(
                records
            )
