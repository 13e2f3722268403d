"""Drivers regenerating every figure in the paper's evaluation (§7, §8).

Each ``figNN_*`` function runs the simulations behind one figure and
returns an :class:`ExperimentResult` holding the same series the paper
plots.  Absolute numbers depend on the (scaled) measurement windows —
see EXPERIMENTS.md — but the shapes are the reproduction target.

Every driver declares its grid of *independent* cells (scheduler x
stripe size, memory sweep points, scaleup configs, ...) and submits the
whole grid through the experiment runner (`repro.experiments.runner`)
rather than looping over simulations itself, so a parallel runner can
fan the entire figure out at once.  Cell hints are static — never
derived from other cells' results — which keeps every cell independent
and every table bit-identical no matter how it was executed.
"""

from __future__ import annotations

from repro.core.config import MB, SpiffiConfig
from repro.experiments.presets import (
    HINTS,
    bench_scale,
    elevator_bundle,
    paper_config,
    realtime_bundle,
)
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import SearchCell, run_grid, search_grid
from repro.bufferpool.registry import ReplacementSpec
from repro.layout.registry import LayoutSpec
from repro.media.access import UniformAccess, ZipfianAccess
from repro.sched.registry import SchedulerSpec
from repro.sharing.spec import SharingSpec

KB = 1024


def _cell(tag: str, config: SpiffiConfig, hint: int) -> SearchCell:
    """One max-terminals search at the active bench scale."""
    scale = bench_scale()
    return SearchCell(
        tag=tag,
        config=config,
        hint=hint,
        granularity=scale.granularity,
        replications=scale.replications,
    )


# ---------------------------------------------------------------------------
# Figure 8 — the Zipfian access distribution (analytic)
# ---------------------------------------------------------------------------

def fig08_zipf(video_count: int = 64) -> ExperimentResult:
    """Access probability by video rank for the paper's z values."""
    models = [
        ("uniform", UniformAccess(video_count)),
        ("z=0.5", ZipfianAccess(video_count, 0.5)),
        ("z=1.0", ZipfianAccess(video_count, 1.0)),
        ("z=1.5", ZipfianAccess(video_count, 1.5)),
    ]
    ranks = [1, 2, 4, 8, 16, 32, 64]
    ranks = [rank for rank in ranks if rank <= video_count]
    headers = ("rank",) + tuple(label for label, _ in models)
    rows = []
    for rank in ranks:
        row = [rank]
        for _, model in models:
            row.append(round(model.weights()[rank - 1], 4))
        rows.append(tuple(row))
    return ExperimentResult(
        name="fig08",
        title=f"Figure 8: Zipfian access frequencies over {video_count} videos",
        headers=headers,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Figure 9 — glitches vs terminals (the search procedure, illustrated)
# ---------------------------------------------------------------------------

def fig09_glitch_curve() -> ExperimentResult:
    """Glitch count as the number of terminals increases."""
    scale = bench_scale()
    base = paper_config(**elevator_bundle())
    hint = HINTS["elevator_512k_bigmem"]
    counts = [hint - 60, hint - 30, hint - 10, hint, hint + 10, hint + 30, hint + 60]
    grid = [
        (f"fig09 t={terminals}", base.replace(terminals=terminals))
        for terminals in counts
    ]
    rows = [
        (terminals, metrics.glitches, metrics.glitching_terminals)
        for terminals, metrics in zip(counts, run_grid(grid))
    ]
    return ExperimentResult(
        name="fig09",
        title="Figure 9: finding the maximum number of terminals without glitches",
        headers=("terminals", "glitches", "glitching terminals"),
        rows=tuple(rows),
        notes=f"(elevator, 512KB stripes, 4GB server memory; "
        f"measure window {scale.measure_s:g}s)",
    )


# ---------------------------------------------------------------------------
# Figure 10 — disk scheduling algorithms x stripe sizes
# ---------------------------------------------------------------------------

#: Rough expected capacity by stripe size, used to seed searches.
_STRIPE_HINT_FACTOR = {
    128 * KB: 0.78,
    256 * KB: 0.90,
    512 * KB: 1.0,
    1024 * KB: 0.70,
}


def fig10_sched_stripe() -> ExperimentResult:
    """Max glitch-free terminals per scheduler per stripe size."""
    scale = bench_scale()
    schedulers = [
        ("elevator", elevator_bundle()),
        ("GSS (1 group)", dict(
            scheduler=SchedulerSpec("gss", gss_groups=1),
            prefetch=elevator_bundle()["prefetch"],
        )),
        ("round-robin", dict(
            scheduler=SchedulerSpec("round_robin"),
            prefetch=elevator_bundle()["prefetch"],
        )),
        ("real-time 2/4s", realtime_bundle(priority_classes=2)),
        ("real-time 3/4s", realtime_bundle(priority_classes=3)),
    ]
    base_hint = HINTS["elevator_512k_bigmem"]
    cells = []
    for stripe in scale.stripe_points:
        for label, bundle in schedulers:
            hint = int(base_hint * _STRIPE_HINT_FACTOR.get(stripe, 0.8))
            if label == "round-robin":
                hint = int(hint * 0.7)
            cells.append(_cell(
                f"fig10 {stripe // KB}KB {label}",
                paper_config(stripe_bytes=stripe, **bundle),
                hint,
            ))
    found = iter(search_grid(cells))
    headers = ("stripe KB",) + tuple(label for label, _ in schedulers)
    rows = [
        tuple([stripe // KB] + [next(found).max_terminals for _ in schedulers])
        for stripe in scale.stripe_points
    ]
    return ExperimentResult(
        name="fig10",
        title="Figure 10: disk scheduling algorithms and stripe sizes "
        "(max glitch-free terminals)",
        headers=headers,
        rows=tuple(rows),
        notes="(4GB server memory, global LRU, 2MB terminals)",
    )


# ---------------------------------------------------------------------------
# Figures 11/12 — server memory requirements
# ---------------------------------------------------------------------------

def _memory_sweep(name: str, variants, hints=None) -> tuple:
    """Search every (memory point x variant) cell of a memory figure.

    *hints* gives each variant's search hint; by default every variant
    starts from the elevator 512 KB big-memory one.
    """
    scale = bench_scale()
    hints = hints or [HINTS["elevator_512k_bigmem"]] * len(variants)
    cells = [
        _cell(
            f"{name} {memory // MB}MB {label}",
            paper_config(server_memory_bytes=memory, **overrides),
            hint,
        )
        for memory in scale.memory_points
        for (label, overrides), hint in zip(variants, hints)
    ]
    found = iter(search_grid(cells))
    headers = ("server MB",) + tuple(label for label, _ in variants)
    rows = tuple(
        tuple([memory // MB] + [next(found).max_terminals for _ in variants])
        for memory in scale.memory_points
    )
    return headers, rows


def fig11_memory_elevator() -> ExperimentResult:
    """Global LRU vs love prefetch under elevator scheduling."""
    bundle = elevator_bundle()
    variants = [
        ("global LRU", dict(replacement_policy=ReplacementSpec("global_lru"), **bundle)),
        ("love prefetch", dict(replacement_policy=ReplacementSpec("love_prefetch"), **bundle)),
    ]
    headers, rows = _memory_sweep("fig11", variants)
    return ExperimentResult(
        name="fig11",
        title="Figure 11: reducing server memory requirements "
        "(elevator disk scheduling; max glitch-free terminals)",
        headers=headers,
        rows=rows,
        notes="(512KB stripes, 2MB terminals)",
    )


def fig12_memory_realtime() -> ExperimentResult:
    """Replacement/prefetching algorithms under real-time scheduling."""
    variants = [
        ("global LRU", dict(
            replacement_policy=ReplacementSpec("global_lru"), **realtime_bundle())),
        ("love prefetch", dict(
            replacement_policy=ReplacementSpec("love_prefetch"), **realtime_bundle())),
        ("love + delayed 8s", dict(
            replacement_policy=ReplacementSpec("love_prefetch"),
            **realtime_bundle(prefetch_mode="delayed", max_advance_s=8.0))),
        ("love + delayed 4s", dict(
            replacement_policy=ReplacementSpec("love_prefetch"),
            **realtime_bundle(prefetch_mode="delayed", max_advance_s=4.0))),
    ]
    headers, rows = _memory_sweep("fig12", variants)
    return ExperimentResult(
        name="fig12",
        title="Figure 12: reducing server memory requirements "
        "(real-time disk scheduling; max glitch-free terminals)",
        headers=headers,
        rows=rows,
        notes="(512KB stripes, 3 priority classes / 4s spacing, "
        "aggressive real-time prefetching)",
    )


# ---------------------------------------------------------------------------
# Figures 13/14 — striped vs non-striped layout
# ---------------------------------------------------------------------------

def fig13_striping() -> ExperimentResult:
    """Striped vs non-striped layouts under Zipf and uniform access."""
    bundle = dict(replacement_policy=ReplacementSpec("love_prefetch"), **elevator_bundle())
    variants = [
        ("striped/zipf", dict(layout=LayoutSpec("striped"), access_model="zipf", **bundle)),
        ("striped/uniform", dict(layout=LayoutSpec("striped"), access_model="uniform", **bundle)),
        ("non-striped/zipf", dict(layout=LayoutSpec("nonstriped"), access_model="zipf", **bundle)),
        ("non-striped/uniform",
         dict(layout=LayoutSpec("nonstriped"), access_model="uniform", **bundle)),
    ]
    hints = [HINTS[key] for key in ("striped", "striped", "nonstriped_zipf", "nonstriped_uniform")]
    headers, rows = _memory_sweep("fig13", variants, hints)
    return ExperimentResult(
        name="fig13",
        title="Figure 13: striped vs non-striped layouts "
        "(max glitch-free terminals)",
        headers=headers,
        rows=rows,
        notes="(512KB stripes/reads, love prefetch, elevator)",
    )


def fig14_disk_utilization() -> ExperimentResult:
    """Average disk utilization at each layout's own maximum load."""
    bundle = dict(
        replacement_policy=ReplacementSpec("love_prefetch"),
        server_memory_bytes=512 * MB,
        **elevator_bundle(),
    )
    variants = [
        ("striped/zipf", dict(layout=LayoutSpec("striped"), access_model="zipf"),
         HINTS["striped"]),
        ("non-striped/zipf", dict(layout=LayoutSpec("nonstriped"), access_model="zipf"),
         HINTS["nonstriped_zipf"]),
        ("non-striped/uniform", dict(layout=LayoutSpec("nonstriped"), access_model="uniform"),
         HINTS["nonstriped_uniform"]),
    ]
    configs = [
        paper_config(**bundle, **overrides) for _, overrides, _ in variants
    ]
    searches = search_grid([
        _cell(f"fig14 {label}", config, hint)
        for (label, _, hint), config in zip(variants, configs)
    ])
    capacities = [max(found.max_terminals, 10) for found in searches]
    at_capacity = run_grid([
        (f"fig14 {label} at capacity", config.replace(terminals=capacity))
        for (label, _, _), config, capacity in zip(variants, configs, capacities)
    ])
    rows = [
        (
            label,
            capacity,
            round(metrics.disk_utilization_mean, 3),
            round(metrics.disk_utilization_min, 3),
            round(metrics.disk_utilization_max, 3),
        )
        for (label, _, _), capacity, metrics in zip(variants, capacities, at_capacity)
    ]
    return ExperimentResult(
        name="fig14",
        title="Figure 14: average disk utilization, striped vs non-striped "
        "(at each layout's max terminals)",
        headers=("layout/access", "terminals", "mean util", "min util", "max util"),
        rows=tuple(rows),
        notes="(512MB server memory, love prefetch, elevator)",
    )


# ---------------------------------------------------------------------------
# Figures 15/16 — movie access frequencies
# ---------------------------------------------------------------------------

_ACCESS_VARIANTS = (
    ("uniform", dict(access_model="uniform")),
    ("zipf z=0.5", dict(access_model="zipf", zipf_skew=0.5)),
    ("zipf z=1.0", dict(access_model="zipf", zipf_skew=1.0)),
    ("zipf z=1.5", dict(access_model="zipf", zipf_skew=1.5)),
)


def fig15_access_frequencies() -> ExperimentResult:
    """Max terminals vs memory for different access skews."""
    bundle = dict(replacement_policy=ReplacementSpec("love_prefetch"), **elevator_bundle())
    variants = [(label, dict(bundle, **overrides)) for label, overrides in _ACCESS_VARIANTS]
    headers, rows = _memory_sweep("fig15", variants, [HINTS["striped"]] * len(variants))
    return ExperimentResult(
        name="fig15",
        title="Figure 15: movie access frequencies "
        "(max glitch-free terminals vs server memory)",
        headers=headers,
        rows=rows,
        notes="(512KB stripes, love prefetch, elevator)",
    )


def fig16_rereference_rate(terminals: int = 150) -> ExperimentResult:
    """Share of buffer references previously referenced by another
    terminal, vs memory, per access skew (fixed load)."""
    scale = bench_scale()
    bundle = dict(replacement_policy=ReplacementSpec("love_prefetch"), **elevator_bundle())
    grid = [
        (
            f"fig16 {memory // MB}MB {label}",
            paper_config(
                terminals=terminals,
                server_memory_bytes=memory,
                **bundle,
                **overrides,
            ),
        )
        for memory in scale.memory_points
        for label, overrides in _ACCESS_VARIANTS
    ]
    metrics = iter(run_grid(grid))
    headers = ("server MB",) + tuple(label for label, _ in _ACCESS_VARIANTS)
    rows = [
        tuple(
            [memory // MB]
            + [
                round(100.0 * next(metrics).rereference_rate, 1)
                for _ in _ACCESS_VARIANTS
            ]
        )
        for memory in scale.memory_points
    ]
    return ExperimentResult(
        name="fig16",
        title="Figure 16: % of buffer pool references previously referenced "
        "by another terminal",
        headers=headers,
        rows=tuple(rows),
        notes=f"(fixed load of {terminals} terminals, love prefetch, elevator)",
    )


# ---------------------------------------------------------------------------
# Figures 17/18 — scaleup utilizations (companions to Table 2)
# ---------------------------------------------------------------------------

_SCALEUP_POINTS = (
    (1, HINTS["elevator_512k_bigmem"]),
    (2, HINTS["scaleup_x2"]),
    (4, HINTS["scaleup_x4"]),
)


def _scaled_config(factor: int, terminals: int) -> SpiffiConfig:
    """The paper's scaleup rule: disks, memory, and videos grow with the
    factor; CPUs stay at 4 (disks_per_node grows)."""
    return paper_config(
        disks_per_node=4 * factor,
        server_memory_bytes=512 * MB * factor,
        terminals=terminals,
        replacement_policy=ReplacementSpec("love_prefetch"),
        **realtime_bundle(prefetch_mode="delayed", max_advance_s=8.0),
    )


def _scaleup_grid(name: str) -> list:
    return run_grid([
        (f"{name} x{factor}", _scaled_config(factor, terminals))
        for factor, terminals in _SCALEUP_POINTS
    ])


def fig17_cpu_utilization() -> ExperimentResult:
    """CPU utilization as the system scales (4 CPUs throughout)."""
    rows = [
        (
            16 * factor,
            terminals,
            round(metrics.cpu_utilization_mean, 3),
            round(metrics.disk_utilization_mean, 3),
        )
        for (factor, terminals), metrics in zip(
            _SCALEUP_POINTS, _scaleup_grid("fig17")
        )
    ]
    return ExperimentResult(
        name="fig17",
        title="Figure 17: CPU utilization under scaleup (4 CPUs)",
        headers=("disks", "terminals", "cpu util", "disk util"),
        rows=tuple(rows),
        notes="(real-time scheduling, love prefetch, delayed prefetching 8s)",
    )


def fig18_network_bandwidth() -> ExperimentResult:
    """Peak aggregate network bandwidth as the system scales."""
    rows = []
    for (factor, terminals), metrics in zip(
        _SCALEUP_POINTS, _scaleup_grid("fig18")
    ):
        per_terminal_mbits = (
            metrics.network_peak_bytes_per_s * 8 / 1e6 / terminals
        )
        rows.append(
            (
                16 * factor,
                terminals,
                round(metrics.network_peak_mbytes_per_s, 1),
                round(per_terminal_mbits, 2),
            )
        )
    return ExperimentResult(
        name="fig18",
        title="Figure 18: peak aggregate network bandwidth requirements",
        headers=("disks", "terminals", "peak MB/s", "Mbit/s per terminal"),
        rows=tuple(rows),
        notes="(real-time scheduling, love prefetch, delayed prefetching 8s)",
    )


# ---------------------------------------------------------------------------
# Figure 19 — pausing
# ---------------------------------------------------------------------------

def fig19_pause() -> ExperimentResult:
    """Effect of viewers pausing twice per video for ~2 minutes."""
    from repro.terminal.pauses import PauseModel

    bundle = dict(
        replacement_policy=ReplacementSpec("love_prefetch"),
        server_memory_bytes=512 * MB,
        **elevator_bundle(),
    )
    variants = [
        ("no pauses", PauseModel(enabled=False)),
        ("2 pauses x 2min avg", PauseModel(enabled=True, mean_pauses_per_video=2.0,
                                           mean_pause_duration_s=120.0)),
    ]
    searches = search_grid([
        _cell(f"fig19 {label}", paper_config(pause_model=model, **bundle),
              HINTS["striped"])
        for label, model in variants
    ])
    rows = [
        (label, found.max_terminals)
        for (label, _), found in zip(variants, searches)
    ]
    return ExperimentResult(
        name="fig19",
        title="Figure 19: effect of pausing (max glitch-free terminals)",
        headers=("pause behaviour", "max terminals"),
        rows=tuple(rows),
        notes="(512MB server memory, love prefetch, elevator)",
    )


# ---------------------------------------------------------------------------
# §8.2 — piggybacking
# ---------------------------------------------------------------------------

def sec82_piggyback(window_s: float | None = None) -> ExperimentResult:
    """Delayed-start piggybacking of same-video terminals: the ``batch``
    sharing policy holds each title's first start for the window.

    The paper's example delay is 5 minutes; the quick bench scale uses
    a 2-minute window to bound the (long) warmup these runs need.
    """
    scale = bench_scale()
    if window_s is None:
        window_s = 120.0 if scale.name == "quick" else 300.0
    spread = max(window_s * 1.5, scale.start_spread_s)
    bundle = dict(
        replacement_policy=ReplacementSpec("love_prefetch"),
        server_memory_bytes=512 * MB,
        initial_position_fraction=0.0,
        start_spread_s=spread,
        **elevator_bundle(),
    )
    variants = [("no piggybacking", 0.0), (f"{window_s:g}s delay", window_s)]
    searches = search_grid([
        _cell(
            f"sec82 {label}",
            paper_config(**bundle).replace(
                sharing=(
                    SharingSpec(policy="batch", window_s=window)
                    if window
                    else SharingSpec()
                ),
                warmup_grace_s=window + scale.warmup_grace_s,
            ),
            HINTS["striped"],
        )
        for label, window in variants
    ])
    rows = [
        (label, found.max_terminals)
        for (label, _), found in zip(variants, searches)
    ]
    return ExperimentResult(
        name="sec82",
        title="Section 8.2: piggybacking terminals "
        "(max glitch-free terminals)",
        headers=("start policy", "max terminals"),
        rows=tuple(rows),
        notes="(Zipf z=1; terminals start videos over a "
        f"{spread:g}s window; 512MB memory, love prefetch, elevator)",
    )
