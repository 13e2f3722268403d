"""The benchmark's three workloads: one complete answer each.

A workload is the unit a user waits for: one max-terminals search, one
max-rate search, or one fixed-load cluster cell.  Each is built from the
public ``repro.api`` surface only, with its simulation windows and its
config seed written out here (not read from ``REPRO_BENCH_SCALE`` or the
command line), so the benchmark keeps doing the same simulated work
whatever the experiment presets become.

Runs go through the stock ``Runner`` over ``SerialExecutor``, the path
the experiments CLI takes, with no run cache attached.
:class:`ConstructionTimer` times system construction by wrapping the
system classes' ``__init__``; the run phase is the rest of each run's
``RunMetrics.wall_time_s``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time

from repro.api import (
    MB,
    AdmissionSpec,
    ArrivalSpec,
    ClusterConfig,
    FaultSpec,
    PlacementSpec,
    PrefetchSpec,
    RouterSpec,
    Runner,
    SchedulerSpec,
    SelfHealSpec,
    SharingSpec,
    SloPolicy,
    SpiffiCluster,
    SpiffiConfig,
    SpiffiSystem,
    find_max_rate,
    find_max_terminals,
)
from repro.experiments.runner import RunRequest

#: The ``--scale quick`` simulation windows every workload runs at.
QUICK_WINDOWS = dict(start_spread_s=8.0, warmup_grace_s=8.0, measure_s=20.0)


def metrics_digest(metrics) -> str:
    """sha256 of the sorted-JSON ``RunMetrics.deterministic_dict()``."""
    payload = json.dumps(metrics.deterministic_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class ConstructionTimer:
    """Host seconds of every system construction, in order.

    Wraps ``SpiffiSystem.__init__`` and ``SpiffiCluster.__init__`` while
    installed.  A cluster constructs its member systems inside its own
    ``__init__``, so only the outermost construction is timed: one entry
    per run.
    """

    CLASSES = (SpiffiSystem, SpiffiCluster)

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self._depth = 0

    def __enter__(self) -> "ConstructionTimer":
        for cls in self.CLASSES:
            cls.__init__ = self._timed(cls.__init__)
        return self

    def __exit__(self, *exc_info) -> None:
        for cls in self.CLASSES:
            cls.__init__ = cls.__init__.__wrapped__

    def _timed(self, init):
        @functools.wraps(init)
        def timed(*args, **kwargs):
            self._depth += 1
            started = time.perf_counter()
            try:
                init(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds.append(time.perf_counter() - started)

        return timed


# ----------------------------------------------------------------------
# closed_capacity: the paper's own experiment (§7.1, Figure 10 cell)
# ----------------------------------------------------------------------
def closed_capacity_config() -> SpiffiConfig:
    """Table-1 server (4x4 disks, 64 one-hour videos, 4 GB, 512 KB
    stripes) with the real-time 3-class scheduler and real-time
    prefetching."""
    return SpiffiConfig(
        scheduler=SchedulerSpec(
            "realtime", priority_classes=3, priority_spacing_s=4.0
        ),
        prefetch=PrefetchSpec(
            "realtime",
            processes_per_disk=4,
            depth=3,
            max_advance_s=8.0,
            pool_share=1.0,
        ),
        seed=1,
        **QUICK_WINDOWS,
    )


def closed_capacity(runner: Runner) -> dict:
    result = find_max_terminals(
        closed_capacity_config(),
        hint=240,
        granularity=25,
        runner=runner,
        tag="closed_capacity",
    )
    return {
        "answer": result.max_terminals,
        "verdicts": [[p.terminals, p.glitch_free] for p in result.probes],
    }


# ----------------------------------------------------------------------
# flash_sharing: the sharing experiment's batch+chain, Zipf 1.0 cell
# ----------------------------------------------------------------------
SHARING_SLO = SloPolicy(
    max_p99_startup_s=10.0, max_rejection_rate=0.05, max_glitches=0
)


def flash_sharing_config() -> SpiffiConfig:
    """The sharing experiment's small disk-bound array: 2x2 disks,
    64 MB, eight 10-minute titles, batch+chain sharing."""
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=1,
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=64 * MB,
        zipf_skew=1.0,
        sharing=SharingSpec(policy="batch+chain", window_s=2.0),
        seed=16,
        **QUICK_WINDOWS,
    )


def flash_arrivals(config: SpiffiConfig):
    """rate (sessions/s) -> flash crowd bursting 3x for a quarter of
    the measurement window, starting a quarter into it."""
    flash_at = config.warmup_s + 0.25 * config.measure_s

    def make(rate_per_s: float) -> ArrivalSpec:
        return ArrivalSpec(
            process="flash",
            rate_per_s=rate_per_s,
            mean_view_duration_s=30.0,
            queue_limit=16,
            mean_patience_s=10.0,
            flash_at_s=flash_at,
            flash_duration_s=0.25 * config.measure_s,
            flash_multiplier=3.0,
            startup_slo_s=SHARING_SLO.max_p99_startup_s,
        )

    return make


def flash_sharing(runner: Runner) -> dict:
    config = flash_sharing_config()
    result = find_max_rate(
        config,
        flash_arrivals(config),
        slo=SHARING_SLO,
        hint=240,
        granularity=60,
        low=60,
        high=960,
        runner=runner,
        tag="flash_sharing",
    )
    return {
        "answer": result.max_rate_per_min,
        "verdicts": [[p.rate_per_min, p.sustainable] for p in result.probes],
    }


# ----------------------------------------------------------------------
# cluster_heal: staggered double outage with self-heal rebuild
# ----------------------------------------------------------------------
CLUSTER_MEASURE_S = 120.0


def cluster_heal_config() -> ClusterConfig:
    """Four members (each the 2x2-disk array with a short catalog),
    chained-declustered placement, locality routing, poisson arrivals,
    nodes 1 and 2 failing a quarter-window apart, rebuild at 4 MB/s."""
    node = SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=1,
        videos_per_disk=2,
        video_length_s=4.0,
        server_memory_bytes=64 * MB,
        zipf_skew=0.9,
        admission=AdmissionSpec("bandwidth", headroom=0.5),
        start_spread_s=8.0,
        warmup_grace_s=8.0,
        measure_s=CLUSTER_MEASURE_S,
        seed=3,
    )
    return ClusterConfig(
        node=node,
        nodes=4,
        placement=PlacementSpec("chained-declustered", replicas=2),
        routing=RouterSpec("locality"),
        workload=ArrivalSpec(
            process="poisson",
            rate_per_s=16.0,
            mean_view_duration_s=30.0,
            queue_limit=4,
            mean_patience_s=10.0,
            startup_slo_s=10.0,
        ),
        faults=FaultSpec(
            fail_node_ids=(1, 2),
            fail_nodes_at_s=node.warmup_s + 0.2 * CLUSTER_MEASURE_S,
            fail_node_stagger_s=0.25 * CLUSTER_MEASURE_S,
        ),
        self_heal=SelfHealSpec(rebuild=True, rebuild_bandwidth_bytes_per_s=4 * MB),
    )


def cluster_heal(runner: Runner) -> dict:
    (outcome,) = runner.run_batch([RunRequest(cluster_heal_config(), "cluster_heal")])
    metrics = outcome.metrics
    return {
        "answer": {
            "lost_sessions": metrics.lost_sessions,
            "failed_over_sessions": metrics.failed_over_sessions,
            "titles_rebuilt": metrics.node_titles_rebuilt,
        },
        "verdicts": [],
    }


WORKLOADS = {
    "closed_capacity": closed_capacity,
    "flash_sharing": flash_sharing,
    "cluster_heal": cluster_heal,
}
