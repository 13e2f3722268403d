"""Saturation: max sustainable arrival rate per admission policy.

The open-system counterpart of the capacity searches: instead of the
largest *fixed population* that never glitches, each cell reports the
largest *session arrival rate* (arrivals/minute) the server sustains
inside its SLOs — zero glitches, bounded p99 startup latency, and a
bounded rejection (balk + renege) rate.

The sweep crosses arrival processes with admission policies to expose
the admission-control trade-off the closed model cannot show: with the
door open (``none``) nothing is ever rejected, so the binding SLO is
glitches/startup once the disks saturate; with bandwidth admission the
streams that *are* admitted stay clean, so the binding SLO becomes the
rejection rate.  A small array with little server memory and a flat
popularity skew keeps the disks the bottleneck, so the wall sits inside
the searched range at every bench scale.

Each cell is one deterministic :func:`repro.workload.find_max_rate`
search; probes fan out through the ambient runner batch by batch, so
results are bit-identical at any ``--jobs`` and cache-hit on re-runs.
"""

from __future__ import annotations

from repro.core.config import MB, SpiffiConfig
from repro.experiments.presets import bench_scale
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import default_runner
from repro.server.admission import AdmissionSpec
from repro.workload import ArrivalSpec, SloPolicy, find_max_rate

#: (row label, admission spec) per policy swept.
POLICIES = (
    ("none", AdmissionSpec()),
    ("bandwidth h=0.7", AdmissionSpec("bandwidth", headroom=0.7)),
)

#: Arrival processes swept (each cell fixes everything but the rate).
PROCESSES = ("poisson", "diurnal")

#: Search coarseness (arrivals/minute) per bench scale.
GRANULARITY = {"quick": 60, "default": 30, "full": 12}

SLO = SloPolicy(max_p99_startup_s=10.0, max_rejection_rate=0.05, max_glitches=0)


def saturation_config() -> SpiffiConfig:
    """The small, disk-bound array every saturation probe runs on."""
    scale = bench_scale()
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=1,  # ignored: the open workload spawns sessions
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=64 * MB,
        zipf_skew=0.2,
        start_spread_s=scale.start_spread_s,
        warmup_grace_s=scale.warmup_grace_s,
        measure_s=scale.measure_s,
    )


def workload_for(process: str):
    """rate (sessions/s) -> the ArrivalSpec probed at that rate."""

    def make(rate_per_s: float) -> ArrivalSpec:
        return ArrivalSpec(
            process=process,
            rate_per_s=rate_per_s,
            mean_view_duration_s=30.0,
            queue_limit=16,
            mean_patience_s=10.0,
            diurnal_period_s=120.0,
            diurnal_amplitude=0.5,
            startup_slo_s=SLO.max_p99_startup_s,
        )

    return make


def saturation() -> ExperimentResult:
    """Max sustainable arrival rate: arrival process x admission policy."""
    scale = bench_scale()
    granularity = GRANULARITY[scale.name]
    base = saturation_config()
    runner = default_runner()

    rows = []
    total_runs = 0
    for process in PROCESSES:
        for label, admission in POLICIES:
            result = find_max_rate(
                base.replace(admission=admission),
                workload_for(process),
                slo=SLO,
                hint=240,
                granularity=granularity,
                low=granularity,
                high=960,
                replications=scale.replications,
                runner=runner,
                tag=f"saturation {process} {label}",
            )
            total_runs += result.runs
            at = result.metrics_at_max()
            rows.append(
                (
                    process,
                    label,
                    result.max_rate_per_min,
                    f"{result.max_rate_per_s:.2f}",
                    at.admitted_sessions if at else 0,
                    f"{at.rejection_rate:.1%}" if at else "-",
                    f"{at.startup_p99_s:.2f}" if at else "-",
                    at.glitches if at else 0,
                    f"{at.admission_queue_len_mean:.2f}" if at else "-",
                    f"{at.network_mean_bytes_per_s / MB:.1f}" if at else "-",
                    result.runs,
                )
            )
    return ExperimentResult(
        name="saturation",
        title="Saturation: max sustainable arrival rate per admission policy",
        headers=(
            "process",
            "admission",
            "max rate/min",
            "rate/s",
            "admitted",
            "rejected",
            "p99 startup",
            "glitches",
            "queue mean",
            "net MB/s",
            "runs",
        ),
        rows=tuple(rows),
        notes=(
            "(2x2 disks, 64MB server memory, zipf skew 0.2, 30s mean "
            "view time, queue limit 16, 10s mean patience; sustainable = "
            f"zero glitches, p99 startup <= {SLO.max_p99_startup_s:g}s, "
            f"rejections <= {SLO.max_rejection_rate:.0%}; searched in "
            f"{granularity}/min steps up to 960/min; detail columns "
            "describe a sustainable run at the reported maximum (net MB/s "
            "= mean delivered bandwidth over the window); "
            f"{total_runs} probe runs, measure window "
            f"{scale.measure_s:g}s)"
        ),
    )
