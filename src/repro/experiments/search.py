"""The paper's primary methodology: finding the maximum load a
configuration supports (§7.1, Figure 9).

"This value is obtained by increasing the number of terminals until the
number of glitches becomes non-zero."  We bracket the boundary starting
from a hint, then bisect down to a configurable granularity (the paper
worked to about 10 terminals / 5%).  Optional replications re-run every
point with different seeds, mirroring the paper's confidence procedure.

The search is split in two for parallel execution:

* :func:`plan_probes` — a *pure* planner: a generator that yields
  batches of load points to probe and receives their verdicts.  Batches
  arise from speculation (the bracketing ladder probes several doubling
  steps at once; bisection probes several candidate midpoints per
  round), so a parallel executor can fan a whole batch out at once.
  The plan depends only on the verdicts — never on execution order or
  job count — so results are bit-identical under any executor.
* :func:`_search` — the one driver loop around the planner.
  :func:`find_max_terminals` (a point is a terminal count that passes
  with zero glitches) and :func:`repro.workload.find_max_rate` (an
  arrival rate that passes inside its SLOs) are thin wrappers over it.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.config import SpiffiConfig
from repro.core.metrics import RunMetrics
from repro.experiments.runner import Runner, RunRequest, default_runner
from repro.runnable import RunnableConfig
from repro.workload.saturation import _SearchRecord


@dataclasses.dataclass(frozen=True)
class Probe:
    terminals: int
    seed: int
    metrics: RunMetrics

    @property
    def glitch_free(self) -> bool:
        return self.metrics.glitches == 0


@dataclasses.dataclass(frozen=True)
class SearchResult(_SearchRecord):
    """Outcome of one max-terminals search."""

    max_terminals: int
    granularity: int
    probes: tuple[Probe, ...]

    _names = ("max_terminals", "terminals", "glitch_free")


#: How many points a single planner round may speculate on: ladder
#: steps while bracketing, candidate midpoints while bisecting.  Fixed
#: (never derived from the executor's job count) so the probe plan is
#: identical no matter how the search is executed.
SPECULATION = 2


def plan_probes(
    low: int,
    high: int,
    pivot: int,
    granularity: int,
    speculation: int = SPECULATION,
) -> typing.Generator[tuple[int, ...], dict[int, bool], int]:
    """Pure capacity probe planner.

    Yields batches (tuples of load points, every one a multiple of
    *granularity* within [low, high]) and expects ``send()`` of a
    ``{point: passes}`` mapping covering the batch.  Returns (via
    ``StopIteration.value``) the largest passing point, or 0 if even
    *low* fails.  Never asks about the same point twice: a ladder batch
    lies beyond every point asked so far on its side of the pivot, and
    a bisection batch strictly inside the bracket.
    """
    if speculation < 1:
        raise ValueError(f"speculation must be >= 1, got {speculation}")
    if granularity < 1:
        raise ValueError(f"granularity must be >= 1, got {granularity}")

    # --- bracket the boundary ------------------------------------------
    # One ladder walks away from the pivot, up to *high* if the pivot
    # passes and down to *low* if it fails, doubling its step every
    # rung, until a verdict differs from the pivot's.  Each round asks
    # for the next `speculation` rungs at once, assuming none flips.
    holds = (yield (pivot,))[pivot]
    step, bound = (granularity, high) if holds else (-granularity, low)
    edge, flip = pivot, None  # edge: the farthest rung with the pivot's verdict
    while flip is None and (bound - edge) * step > 0:
        ladder: list[int] = []
        point = edge
        while len(ladder) < speculation and point != bound:
            point = min(max(_snap(point + step, granularity), low), high)
            ladder.append(point)
            step *= 2
        verdicts = yield tuple(ladder)
        for point in ladder:
            if verdicts[point] != holds:
                flip = point
                break
            edge = point
    if flip is None:
        # Everything up to *high* passes, or even *low* fails.
        return edge if holds else 0
    best, fail = (edge, flip) if holds else (flip, edge)

    # --- bisect between best (passing) and fail -------------------------
    # Several candidate midpoints per round: with k candidates known,
    # the bracket shrinks to ~1/(k+1) of its span every round whichever
    # way the verdicts fall.
    while fail - best > granularity:
        span = fail - best
        k = max(1, min(speculation, span // granularity - 1))
        points = (_snap(best + span * i // (k + 1), granularity) for i in range(1, k + 1))
        candidates = [c for c in dict.fromkeys(points) if best < c < fail]
        if not candidates:
            break
        verdicts = yield tuple(candidates)
        for candidate in candidates:
            if not verdicts[candidate]:
                fail = candidate
                break
            best = candidate
    return best


def _search(
    kind: str,
    point_tag: str,
    configure: typing.Callable[[int, int], RunnableConfig],
    passes: typing.Callable[[RunMetrics], bool],
    record: typing.Callable[[int, int, RunMetrics, bool], typing.Any],
    *,
    seed: int,
    hint: int,
    granularity: int,
    low: int,
    high: int,
    replications: int,
    runner: Runner | None,
    speculation: int,
    tag: str,
) -> tuple[int, tuple]:
    """The largest point (a multiple of *granularity*) at which all
    *replications* runs pass, and every probe as *record* built it.

    ``configure(point, seed)`` is the config to run at one point, with
    replications seeded ``seed``, ``seed + 1``, ...; ``passes(metrics)``
    is one run's verdict.  Every replication of a planned batch runs in
    one :meth:`Runner.run_batch` and is recorded, so the probe evidence
    never depends on execution order.  Runs are tagged ``"{tag or kind}
    {point_tag} seed={seed}"``, with *point_tag* formatted with the
    point.  A run that errors (after the executor's retries) aborts the
    search with a ``"{kind} probe ..."`` error: it cannot yield a
    verdict either way, and aborting keeps the search's determinism
    contract honest.
    """
    if granularity < 1:
        raise ValueError(f"granularity must be >= 1, got {granularity}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    low = max(granularity, _snap(low, granularity))
    high = _snap(high, granularity)
    if low > high:
        raise ValueError(f"empty search range [{low}, {high}]")
    runner = runner or default_runner()

    pivot = min(max(_snap(hint, granularity), low), high)
    probes: list = []
    plan = plan_probes(low, high, pivot, granularity, speculation)
    batch = next(plan)
    while True:
        runs = [(point, s) for point in batch for s in range(seed, seed + replications)]
        requests = [
            RunRequest(configure(point, s), tag=f"{tag or kind} {point_tag.format(point)} seed={s}")
            for point, s in runs
        ]
        verdicts = dict.fromkeys(batch, True)
        for (point, s), outcome in zip(runs, runner.run_batch(requests)):
            if outcome.failed:
                raise RuntimeError(
                    f"{kind} probe {outcome.tag or point} failed: {outcome.error}"
                )
            passed = passes(outcome.metrics)
            probes.append(record(point, s, outcome.metrics, passed))
            verdicts[point] &= passed
        try:
            batch = plan.send(verdicts)
        except StopIteration as stop:
            return stop.value, tuple(probes)


def find_max_terminals(
    config: SpiffiConfig,
    hint: int = 200,
    granularity: int = 10,
    low: int = 10,
    high: int = 4000,
    replications: int = 1,
    runner: Runner | None = None,
    speculation: int = SPECULATION,
    tag: str = "",
) -> SearchResult:
    """Largest terminal count (multiple of *granularity*) with zero
    glitches across *replications* seeded runs.

    *hint* seeds the bracketing phase; a good hint (e.g. the paper's own
    number) keeps the search to a handful of simulation runs.  Probes
    are fanned out through *runner* (the ambient default when omitted)
    batch by batch: all replications of every batch point run together,
    and the result is identical for any executor or job count.
    """
    best, probes = _search(
        "search",
        "t={}",
        lambda terminals, seed: config.replace(terminals=terminals, seed=seed),
        lambda metrics: metrics.glitches == 0,
        lambda terminals, seed, metrics, _: Probe(terminals, seed, metrics),
        seed=config.seed, hint=hint, granularity=granularity, low=low, high=high,
        replications=replications, runner=runner, speculation=speculation, tag=tag,
    )
    return SearchResult(best, granularity, probes)


def _snap(value: int, granularity: int) -> int:
    return (value // granularity) * granularity
