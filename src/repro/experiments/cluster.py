"""Cluster scaling: max sustainable arrival rate vs node count.

The multi-node counterpart of :mod:`~repro.experiments.saturation`,
and the reproduction of the INRIA-bound comparison: a video server
built from N independent nodes should sustain N times the single-node
arrival rate as long as placement spreads the load and routing keeps
every member busy.  Each cell grids node count x (placement, routing)
and searches for the largest cluster-wide arrival rate that stays
inside the saturation SLOs, then reports it next to the *theoretical
bound* — the aggregate-disk-bandwidth capacity through Little's law:

    bound(N) = N x (disks x transfer rate / stream rate) / mean view

Measured/bound is the scaling efficiency: how much of the ideal linear
speedup the placement+routing combination delivers (cache effects can
push it past 1.0 at small N; routing imbalance pulls it below).

Each member node is the saturation experiment's small disk-bound array,
so the wall sits inside the searched range at every bench scale, and
every probe is a deterministic :func:`repro.workload.find_max_rate`
search over :class:`~repro.cluster.ClusterConfig` runs — bit-identical
at any ``--jobs`` and cache-hit on re-runs.
"""

from __future__ import annotations

from repro.cluster import ClusterConfig, PlacementSpec, RouterSpec
from repro.core.metrics import MB
from repro.experiments.presets import bench_scale
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import default_runner
from repro.experiments.saturation import (
    GRANULARITY,
    SLO,
    saturation_config,
    workload_for,
)
from repro.workload import find_max_rate

#: (placement spec, router spec) combinations gridded per node count.
COMBOS = (
    (PlacementSpec("partitioned"), RouterSpec("locality")),
    (PlacementSpec("replicated"), RouterSpec("least-loaded")),
)

#: Mean viewing time (the Little's-law residence time W).
MEAN_VIEW_S = 30.0


def node_counts() -> tuple[int, ...]:
    """Cluster sizes gridded at the current bench scale."""
    return (1, 2) if bench_scale().name == "quick" else (1, 2, 4)


def theoretical_bound_per_min(node, members: int) -> float:
    """The INRIA-style linear bound: aggregate disk bandwidth through
    Little's law, in arrivals/minute."""
    stream_bytes_per_s = node.video_bit_rate_bps / 8.0
    streams_per_member = (
        node.disk_count * node.drive.transfer_rate_bytes / stream_bytes_per_s
    )
    return members * streams_per_member / MEAN_VIEW_S * 60.0


def cluster() -> ExperimentResult:
    """Max sustainable arrival rate: node count x placement x routing."""
    scale = bench_scale()
    granularity = GRANULARITY[scale.name]
    node = saturation_config()
    runner = default_runner()

    rows = []
    total_runs = 0
    for members in node_counts():
        bound = theoretical_bound_per_min(node, members)
        for placement, routing in COMBOS:
            # The search replaces ``workload`` per probe; seed the base
            # config with the hint-rate workload so it validates (a
            # multi-node cluster rejects the default closed workload).
            config = ClusterConfig(
                node=node,
                nodes=members,
                placement=placement,
                routing=routing,
                workload=workload_for("poisson")(240 * members / 60.0),
            )
            result = find_max_rate(
                config,
                workload_for("poisson"),
                slo=SLO,
                hint=240 * members,
                granularity=granularity,
                low=granularity,
                high=960 * members,
                replications=scale.replications,
                runner=runner,
                tag=(
                    f"cluster n={members} {placement.label()} "
                    f"{routing.label()}"
                ),
            )
            total_runs += result.runs
            at = result.metrics_at_max()
            rows.append(
                (
                    members,
                    placement.label(),
                    routing.label(),
                    result.max_rate_per_min,
                    f"{bound:.0f}",
                    f"{result.max_rate_per_min / bound:.2f}",
                    at.admitted_sessions if at else 0,
                    f"{at.rejection_rate:.1%}" if at else "-",
                    f"{at.startup_p99_s:.2f}" if at else "-",
                    f"{at.network_mean_bytes_per_s / MB:.1f}" if at else "-",
                    result.runs,
                )
            )
    return ExperimentResult(
        name="cluster",
        title="Cluster scaling: max sustainable arrival rate vs node count",
        headers=(
            "nodes",
            "placement",
            "routing",
            "max rate/min",
            "bound/min",
            "ratio",
            "admitted",
            "rejected",
            "p99 startup",
            "net MB/s",
            "runs",
        ),
        rows=tuple(rows),
        notes=(
            "(each member is the saturation array: 2x2 disks, 64MB server "
            "memory, zipf skew 0.2; poisson arrivals, 30s mean view time, "
            "queue limit 16, 10s mean patience; sustainable = zero "
            f"glitches, p99 startup <= {SLO.max_p99_startup_s:g}s, "
            f"rejections <= {SLO.max_rejection_rate:.0%}; bound = "
            "aggregate disk bandwidth / stream rate / mean view (Little's "
            "law), ratio = measured/bound; net MB/s sums the member buses "
            "plus the interconnect (mean over the window); searched in "
            f"{granularity}/min steps up to 960/min per node; "
            f"{total_runs} probe runs, measure window {scale.measure_s:g}s)"
        ),
    )
