"""Saturation search: the maximum sustainable session arrival rate.

The open-system analogue of the paper's max-terminals methodology
(§7.1): instead of "how many looping terminals fit," it answers "how
much traffic can this server sustain under its SLOs?" — the question an
inference- or video-serving stack is actually benchmarked on.  A load
point is *sustainable* when the run stays inside every bound of the
:class:`SloPolicy` (zero glitches, p99 startup latency, rejection
rate).  It is the max-terminals search with another point → config
map and verdict: both run the one driver in
:mod:`repro.experiments.search`, so the probe plan — and therefore the
result — is bit-identical under any executor, job count, or cache
state.

Rates are searched in integer **arrivals per minute** so the planner's
snap-to-granularity arithmetic stays exact.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.workload.spec import ArrivalSpec

if typing.TYPE_CHECKING:  # pragma: no cover
    # Imported lazily at runtime: this module is reachable from
    # ``SpiffiConfig`` (via the workload package), so importing the
    # config/experiments layers here would be circular.
    from repro.core.config import SpiffiConfig
    from repro.core.metrics import RunMetrics
    from repro.experiments.runner import Runner


@dataclasses.dataclass(frozen=True)
class SloPolicy:
    """What "sustainable" means for a saturation search."""

    #: p99 startup latency (arrival to first frame) must stay under this.
    max_p99_startup_s: float = 10.0
    #: (balked + reneged) / offered must stay under this.
    max_rejection_rate: float = 0.05
    #: Scheduling glitches allowed during the window (the paper's bound).
    max_glitches: int = 0

    def __post_init__(self) -> None:
        if self.max_p99_startup_s <= 0:
            raise ValueError(
                f"max_p99_startup_s must be positive, got {self.max_p99_startup_s}"
            )
        if not 0.0 <= self.max_rejection_rate <= 1.0:
            raise ValueError(
                f"max_rejection_rate must be in [0, 1], "
                f"got {self.max_rejection_rate}"
            )
        if self.max_glitches < 0:
            raise ValueError(
                f"max_glitches must be >= 0, got {self.max_glitches}"
            )

    def sustainable(self, metrics: "RunMetrics") -> bool:
        """Whether one run satisfied every SLO."""
        if metrics.glitches > self.max_glitches:
            return False
        if metrics.startup_p99_s > self.max_p99_startup_s:
            return False
        return metrics.rejection_rate <= self.max_rejection_rate


class _SearchRecord:
    """``runs`` and ``metrics_at_max`` of both capacity search results.

    ``_names`` names, in order, the result's answer field, and a
    probe's point and verdict fields.
    """

    _names: typing.ClassVar[tuple[str, str, str]]
    probes: tuple

    @property
    def runs(self) -> int:
        return len(self.probes)

    def metrics_at_max(self) -> "RunMetrics | None":
        """Metrics of a passing run at the reported maximum."""
        answer, point, passed = self._names
        for probe in self.probes:
            if getattr(probe, point) == getattr(self, answer) and getattr(probe, passed):
                return probe.metrics
        return None


@dataclasses.dataclass(frozen=True)
class RateProbe:
    """One simulated load point of a saturation search."""

    rate_per_min: int
    seed: int
    metrics: "RunMetrics"
    sustainable: bool


@dataclasses.dataclass(frozen=True)
class SaturationResult(_SearchRecord):
    """Outcome of one max-sustainable-rate search."""

    max_rate_per_min: int
    granularity: int
    slo: SloPolicy
    probes: tuple[RateProbe, ...]

    _names = ("max_rate_per_min", "rate_per_min", "sustainable")

    @property
    def max_rate_per_s(self) -> float:
        return self.max_rate_per_min / 60.0


def find_max_rate(
    config: "SpiffiConfig",
    workload_for_rate: typing.Callable[[float], ArrivalSpec],
    slo: SloPolicy | None = None,
    hint: int = 60,
    granularity: int = 12,
    low: int = 12,
    high: int = 1200,
    replications: int = 1,
    runner: "Runner | None" = None,
    speculation: int | None = None,
    tag: str = "",
) -> SaturationResult:
    """Largest arrival rate (arrivals/min, a multiple of *granularity*)
    sustainable under *slo* across *replications* seeded runs.

    *workload_for_rate* maps a rate in sessions/second to the full
    :class:`ArrivalSpec` to probe (fixing the process, queue bound,
    patience, and SLO parameters); every probe runs ``config`` with only
    that spec (and the replication seed) changed.  Probes fan out
    through *runner* batch by batch in the driver that
    :func:`repro.experiments.search.find_max_terminals` runs, so results
    are identical for any executor or job count and cache-hit on re-runs.
    """
    from repro.experiments.search import SPECULATION, _search

    slo = slo or SloPolicy()
    best, probes = _search(
        "saturation",
        "rate={}/min",
        lambda rate, seed: config.replace(workload=workload_for_rate(rate / 60.0), seed=seed),
        slo.sustainable,
        RateProbe,
        seed=config.seed, hint=hint, granularity=granularity, low=low, high=high,
        replications=replications, runner=runner,
        speculation=SPECULATION if speculation is None else speculation, tag=tag,
    )
    return SaturationResult(best, granularity, slo, probes)
