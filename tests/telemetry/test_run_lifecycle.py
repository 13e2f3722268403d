"""One live system per process.

A running system must create no cyclic garbage, so nothing it drops
while it runs waits for a collection; and ``execute_timed`` collects a
finished system before it builds the next, so consecutive runs (the
probes of one search) never hold two systems at once.
"""

import contextlib
import gc
import weakref

import pytest

from repro.cluster import SpiffiCluster
from repro.core.config import MB, SpiffiConfig
from repro.core.system import SpiffiSystem
from repro.faults import FaultSpec
from repro.runnable import run
from repro.sharing import SharingSpec
from tests.cluster.conftest import open_workload, small_cluster, small_node


# Every server here has one node: multi-node striping can still place a
# block past its disk's end (ROADMAP item 9), which is not what this
# file tests.
def closed_config(**overrides):
    base = dict(
        nodes=1,
        disks_per_node=4,
        terminals=12,
        videos_per_disk=1,
        video_length_s=60.0,
        server_memory_bytes=256 * MB,
        start_spread_s=2.0,
        warmup_grace_s=2.0,
        measure_s=10.0,
    )
    base.update(overrides)
    return SpiffiConfig(**base)


SYSTEMS = {
    "closed": lambda: SpiffiSystem(closed_config()),
    "open-batch-chain": lambda: SpiffiSystem(
        small_node(
            zipf_skew=1.0,
            workload=open_workload(2.0),
            sharing=SharingSpec(policy="batch+chain", window_s=2.0),
        )
    ),
    "cluster-node-failure": lambda: SpiffiCluster(
        small_cluster(
            workload=open_workload(1.0),
            faults=FaultSpec(fail_node_ids=(1,), fail_nodes_at_s=8.0),
        )
    ),
    # Disk outages with timed-out reads that retry: every retry races a
    # read against a timeout.
    "disk-fault-retries": lambda: SpiffiSystem(
        closed_config(
            faults=FaultSpec(
                disk_fault_rate_per_hour=3600.0,
                request_timeout_s=0.2,
                max_retries=2,
            )
        )
    ),
}


@contextlib.contextmanager
def automatic_collection_off():
    """Disable the cyclic collector inside the block, restoring it after."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_a_running_system_creates_no_cyclic_garbage(name):
    system = SYSTEMS[name]()
    gc.collect()
    with automatic_collection_off():
        metrics = system.run()
        assert gc.collect() == 0
    assert metrics.blocks_delivered > 0
    if name == "disk-fault-retries":
        assert metrics.fault_retries > 0


def test_execute_timed_keeps_at_most_one_finished_system(monkeypatch):
    built = []
    init = SpiffiSystem.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(SpiffiSystem, "__init__", recording_init)
    with automatic_collection_off():
        run(closed_config(seed=1))
        run(closed_config(seed=2))
        assert len(built) == 2
        assert built[0]() is None, "the first run's system outlived the second run"
