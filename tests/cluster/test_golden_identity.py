"""The degenerate cluster is the standalone system, bit for bit.

A 1-node ``partitioned`` cluster with a closed workload must reproduce
the standalone golden (row ``midsize`` of ``tests/pins.json``) exactly,
same behaviour digest and same event count, under direct execution,
the serial executor (``--jobs 1``) and the process pool (``--jobs 4``).
This is what licenses the ``SpiffiSystem`` → ``SpiffiNode`` + cluster
refactor: the cluster wrapper adds no simulation events and draws no
randomness.
"""

import pytest

from repro.cluster import ClusterConfig, PlacementSpec, RouterSpec
from repro.experiments.results import config_digest
from repro.workload.spec import ArrivalSpec
from tests import pins
from tests.sim.calendar_kernel import SYSTEM_BACKENDS
from tests.sim.test_golden_digest import midsize_config


def one_node_cluster() -> ClusterConfig:
    return ClusterConfig(node=midsize_config())


def test_identity_direct():
    pins.check("midsize", pins.run(one_node_cluster()))


def test_identity_jobs_1():
    pins.check("midsize", pins.run(one_node_cluster(), "jobs_1"))


def test_identity_jobs_4():
    pins.check("midsize", pins.run(one_node_cluster(), "jobs_4"))


def test_cluster_config_digest_is_not_the_member_digest():
    # Identical *results*, distinct cache identity: a cluster run must
    # never collide with the standalone run in the run cache.
    assert config_digest(one_node_cluster()) != pins.STORE.rows["midsize"]["config"]


# Row ``storm``: the kernel at cluster scale, an open 3-node cluster
# where most events are timers (arrival draws, short patience clocks,
# view-duration churn), on both kernels.
def storm_cluster() -> ClusterConfig:
    node = midsize_config().replace(
        terminals=1,  # ignored: the open cluster workload owns sessions
        measure_s=45.0,
    )
    return ClusterConfig(
        node=node,
        nodes=3,
        placement=PlacementSpec("replicated"),
        routing=RouterSpec("least-loaded"),
        workload=ArrivalSpec(
            process="poisson",
            rate_per_s=3.0,
            mean_view_duration_s=30.0,
            queue_limit=12,
            mean_patience_s=2.0,
        ),
    )


@pytest.mark.parametrize("backend", SYSTEM_BACKENDS)
def test_storm_cluster_identity_across_backends(backend):
    pins.check_config("storm", storm_cluster())
    pins.check("storm", pins.run(storm_cluster(), backend=backend))


@pytest.mark.parametrize("backend", SYSTEM_BACKENDS)
def test_storm_cluster_identity_jobs_4(backend):
    pins.check("storm", pins.run(storm_cluster(), "jobs_4", backend))
