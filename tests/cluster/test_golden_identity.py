"""The degenerate cluster is the standalone system, bit for bit.

A 1-node ``partitioned`` cluster with a closed workload must reproduce
the single-system golden digests exactly — same metrics digest, same
event count — under direct execution, the serial executor (``--jobs
1``), and the process pool (``--jobs 4``).  This is what licenses the
``SpiffiSystem`` → ``SpiffiNode`` + cluster refactor: the cluster
wrapper adds no simulation events and draws no randomness.
"""

import pytest

from repro.cluster import ClusterConfig, PlacementSpec, RouterSpec, run_cluster
from repro.experiments.results import config_digest
from repro.experiments.runner import (
    ProcessExecutor,
    Runner,
    RunRequest,
    SerialExecutor,
)
from repro.workload.spec import ArrivalSpec
from tests.sim.calendar_kernel import SYSTEM_BACKENDS, system_kernels
from tests.sim.test_golden_digest import (
    GOLDEN_CONFIG_DIGEST,
    GOLDEN_EVENTS_PROCESSED,
    GOLDEN_METRICS_DIGEST,
    metrics_digest,
    midsize_config,
)


def one_node_cluster() -> ClusterConfig:
    return ClusterConfig(node=midsize_config())


def run_with(executor):
    runner = Runner(executor=executor, cache=None)
    try:
        outcome = runner.run_batch([RunRequest(one_node_cluster())])[0]
    finally:
        executor.close()
    assert not outcome.failed, outcome.error
    return outcome.metrics


def test_identity_direct():
    metrics = run_cluster(one_node_cluster())
    assert metrics.events_processed == GOLDEN_EVENTS_PROCESSED
    assert metrics_digest(metrics) == GOLDEN_METRICS_DIGEST


def test_identity_jobs_1():
    metrics = run_with(SerialExecutor())
    assert metrics.events_processed == GOLDEN_EVENTS_PROCESSED
    assert metrics_digest(metrics) == GOLDEN_METRICS_DIGEST


def test_identity_jobs_4():
    metrics = run_with(ProcessExecutor(jobs=4))
    assert metrics.events_processed == GOLDEN_EVENTS_PROCESSED
    assert metrics_digest(metrics) == GOLDEN_METRICS_DIGEST


def test_cluster_config_digest_is_not_the_member_digest():
    # Identical *results*, distinct cache identity: a cluster run must
    # never collide with the standalone run in the run cache.
    assert config_digest(one_node_cluster()) != GOLDEN_CONFIG_DIGEST


# ----------------------------------------------------------------------
# Timer-storm-heavy cluster: the kernel at cluster scale.  An open
# 3-node cluster where most kernel events are timers — arrival draws,
# short patience clocks, view-duration churn.  Both the heap kernel and
# the calendar-queue oracle (``tests/sim/calendar_kernel.py``) must
# reproduce the digests below bit-for-bit (re-record with
# ``print_storm_current()`` after intentional behaviour changes).
# ----------------------------------------------------------------------
GOLDEN_STORM_CONFIG_DIGEST = (
    "f493c8b73aceee6ccdd63473a92ae9708cf34ad588d5413c5352013db176d28b"
)
GOLDEN_STORM_METRICS_DIGEST = (
    "9ebe95656e4017bc4bc466d40fc25aa8e68bcdfa83616550a41a0f8f9d64450a"
)
GOLDEN_STORM_EVENTS_PROCESSED = 46104


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
def test_storm_cluster_identity_across_backends(backend, monkeypatch):
    assert config_digest(storm_cluster()) == GOLDEN_STORM_CONFIG_DIGEST
    with system_kernels(backend, monkeypatch) as built:
        metrics = run_cluster(storm_cluster())
    assert len(built) == (backend == "calendar")
    assert metrics.events_processed == GOLDEN_STORM_EVENTS_PROCESSED
    assert metrics_digest(metrics) == GOLDEN_STORM_METRICS_DIGEST


@pytest.mark.parametrize("backend", SYSTEM_BACKENDS)
def test_storm_cluster_identity_jobs_4(backend, monkeypatch):
    runner = Runner(executor=ProcessExecutor(jobs=4), cache=None)
    try:
        with system_kernels(backend, monkeypatch):
            outcome = runner.run_batch([RunRequest(storm_cluster())])[0]
    finally:
        runner.executor.close()
    assert not outcome.failed, outcome.error
    assert outcome.metrics.events_processed == GOLDEN_STORM_EVENTS_PROCESSED
    assert metrics_digest(outcome.metrics) == GOLDEN_STORM_METRICS_DIGEST


def print_storm_current() -> None:  # pragma: no cover - re-recording helper
    metrics = run_cluster(storm_cluster())
    print("config digest: ", config_digest(storm_cluster()))
    print("metrics digest:", metrics_digest(metrics))
    print("events:        ", metrics.events_processed)
