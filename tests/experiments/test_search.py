"""Tests for the max-terminals search (with a stubbed simulator)."""

import dataclasses

import pytest

import repro.experiments.runner as runner_module
from repro import SpiffiConfig
from repro.experiments.search import find_max_terminals, plan_probes


@dataclasses.dataclass
class FakeMetrics:
    glitches: int


class Oracle:
    """Pretends the true capacity is `capacity` (seed-dependent shift)."""

    def __init__(self, capacity, seed_shift=0):
        self.capacity = capacity
        self.seed_shift = seed_shift
        self.calls = []

    def __call__(self, config):
        self.calls.append((config.terminals, config.seed))
        effective = self.capacity + self.seed_shift * (config.seed % 2)
        return FakeMetrics(glitches=0 if config.terminals <= effective else 7)


@pytest.fixture()
def patch_runner(monkeypatch):
    def apply(oracle):
        monkeypatch.setattr(runner_module, "run", oracle)
        return oracle
    return apply


def config():
    return SpiffiConfig(terminals=10, measure_s=10.0)


class TestSearch:
    def test_finds_exact_boundary(self, patch_runner):
        oracle = patch_runner(Oracle(capacity=223))
        result = find_max_terminals(config(), hint=200, granularity=10)
        assert result.max_terminals == 220

    def test_hint_above_boundary_descends(self, patch_runner):
        oracle = patch_runner(Oracle(capacity=100))
        result = find_max_terminals(config(), hint=400, granularity=10)
        assert result.max_terminals == 100

    def test_hint_below_boundary_climbs(self, patch_runner):
        oracle = patch_runner(Oracle(capacity=800))
        result = find_max_terminals(config(), hint=100, granularity=10)
        assert result.max_terminals == 800

    def test_granularity_respected(self, patch_runner):
        patch_runner(Oracle(capacity=223))
        result = find_max_terminals(config(), hint=200, granularity=50)
        assert result.max_terminals == 200
        assert result.max_terminals % 50 == 0

    def test_zero_capacity(self, patch_runner):
        patch_runner(Oracle(capacity=0))
        result = find_max_terminals(config(), hint=100, granularity=10, low=10)
        assert result.max_terminals == 0

    def test_everything_fits_returns_high_limit(self, patch_runner):
        patch_runner(Oracle(capacity=10**9))
        result = find_max_terminals(config(), hint=100, granularity=100, high=1000)
        assert result.max_terminals == 1000

    def test_probe_count_logarithmic(self, patch_runner):
        oracle = patch_runner(Oracle(capacity=517))
        result = find_max_terminals(config(), hint=200, granularity=10, high=4000)
        assert result.max_terminals == 510
        assert result.runs <= 16

    def test_no_duplicate_probes(self, patch_runner):
        oracle = patch_runner(Oracle(capacity=300))
        find_max_terminals(config(), hint=250, granularity=10)
        terminals_probed = [t for t, _ in oracle.calls]
        assert len(terminals_probed) == len(set(terminals_probed))

    def test_replications_must_all_pass(self, patch_runner):
        # Odd seeds support 40 fewer terminals.
        patch_runner(Oracle(capacity=300, seed_shift=-40))
        strict = find_max_terminals(
            config(), hint=300, granularity=10, replications=2
        )
        assert strict.max_terminals == 260

    def test_metrics_at_max_available(self, patch_runner):
        patch_runner(Oracle(capacity=200))
        result = find_max_terminals(config(), hint=200, granularity=10)
        assert result.metrics_at_max().glitches == 0

    def test_validation(self, patch_runner):
        patch_runner(Oracle(capacity=100))
        with pytest.raises(ValueError):
            find_max_terminals(config(), granularity=0)
        with pytest.raises(ValueError):
            find_max_terminals(config(), replications=0)
        with pytest.raises(ValueError):
            find_max_terminals(config(), low=500, high=100)


class TestSearchEdgeCases:
    def test_hint_clamped_at_low(self, patch_runner):
        oracle = patch_runner(Oracle(capacity=50))
        result = find_max_terminals(config(), hint=3, granularity=10, low=10)
        assert result.max_terminals == 50
        assert min(t for t, _ in oracle.calls) >= 10

    def test_hint_clamped_at_high(self, patch_runner):
        oracle = patch_runner(Oracle(capacity=10**9))
        result = find_max_terminals(
            config(), hint=99999, granularity=10, high=500
        )
        assert result.max_terminals == 500
        assert max(t for t, _ in oracle.calls) <= 500

    def test_zero_capacity_evidence_recorded(self, patch_runner):
        patch_runner(Oracle(capacity=0))
        result = find_max_terminals(config(), hint=100, granularity=10, low=10)
        assert result.max_terminals == 0
        assert result.runs > 0
        assert all(not probe.glitch_free for probe in result.probes)
        assert result.metrics_at_max() is None

    def test_granularity_one_finds_exact_capacity(self, patch_runner):
        patch_runner(Oracle(capacity=223))
        result = find_max_terminals(config(), hint=200, granularity=1)
        assert result.max_terminals == 223

    def test_metrics_at_max_with_replications(self, patch_runner):
        patch_runner(Oracle(capacity=200))
        result = find_max_terminals(
            config(), hint=200, granularity=10, replications=3
        )
        assert result.max_terminals == 200
        assert result.metrics_at_max().glitches == 0
        at_max = [p for p in result.probes if p.terminals == 200]
        assert len(at_max) == 3
        assert [p.seed for p in at_max] == [1, 2, 3]

    def test_full_replication_batch_always_recorded(self, patch_runner):
        """A glitching replication must not truncate its point's record
        (the old early `break` made evidence order-dependent)."""
        patch_runner(Oracle(capacity=300, seed_shift=-40))
        result = find_max_terminals(
            config(), hint=300, granularity=10, replications=2
        )
        by_point = {}
        for probe in result.probes:
            by_point.setdefault(probe.terminals, []).append(probe.seed)
        assert all(seeds == [1, 2] for seeds in by_point.values())

    def test_probe_sequence_deterministic(self, patch_runner):
        patch_runner(Oracle(capacity=340))
        first = find_max_terminals(config(), hint=150, granularity=10)
        second = find_max_terminals(config(), hint=150, granularity=10)
        assert first.max_terminals == second.max_terminals
        assert [
            (p.terminals, p.seed) for p in first.probes
        ] == [(p.terminals, p.seed) for p in second.probes]


class TestPlanProbes:
    """The planner alone: a pure generator over verdicts."""

    def drive(self, plan, capacity):
        asked = []
        try:
            batch = next(plan)
            while True:
                assert isinstance(batch, tuple) and batch
                asked.extend(batch)
                batch = plan.send({t: t <= capacity for t in batch})
        except StopIteration as stop:
            return stop.value, asked

    def test_batches_never_repeat_a_point(self):
        best, asked = self.drive(
            plan_probes(10, 4000, 200, 10), capacity=517
        )
        assert best == 510
        assert len(asked) == len(set(asked))

    def test_all_points_snapped_and_bounded(self):
        best, asked = self.drive(
            plan_probes(50, 1000, 300, 50), capacity=10**9
        )
        assert best == 1000
        assert all(50 <= t <= 1000 and t % 50 == 0 for t in asked)

    def test_speculation_validated(self):
        with pytest.raises(ValueError):
            next(plan_probes(10, 100, 50, 10, speculation=0))

    def test_granularity_validated(self):
        for granularity in (0, -10):
            with pytest.raises(ValueError, match="granularity"):
                next(plan_probes(10, 100, 50, granularity))

    def test_wider_speculation_same_answer(self):
        for speculation in (1, 2, 3, 5):
            best, _ = self.drive(
                plan_probes(10, 4000, 200, 10, speculation=speculation),
                capacity=517,
            )
            assert best == 510


#: Batch sequences and answers of the planner against a monotone
#: capacity: (low, high, pivot, granularity, speculation, capacity),
#: answer, batches.  Every published search table and run-cache entry
#: follows from this plan, so it must not move.
PINNED_PLANS = {
    "climbing": (
        (10, 4000, 200, 10, 2, 517),
        510,
        [(200,), (210, 230), (270, 350), (510, 830), (610, 720), (540, 570), (520, 530)],
    ),
    "descending": (
        (10, 4000, 400, 10, 2, 100),
        100,
        [(400,), (390, 370), (330, 250), (90, 10), (140, 190), (100, 120), (110,)],
    ),
    "zero-capacity": (
        (10, 4000, 100, 10, 2, 0),
        0,
        [(100,), (90, 70), (30, 10)],
    ),
    "capacity-at-high": (
        (100, 1000, 100, 100, 2, 10**9),
        1000,
        [(100,), (200, 400), (800, 1000)],
    ),
    "speculation-1": (
        (10, 4000, 200, 10, 1, 517),
        510,
        [(200,), (210,), (230,), (270,), (350,), (510,), (830,), (670,), (590,),
         (550,), (530,), (520,)],
    ),
    "speculation-3": (
        (10, 4000, 200, 10, 3, 517),
        510,
        [(200,), (210, 230, 270), (350, 510, 830), (590, 670, 750), (530, 550, 570),
         (520,)],
    ),
    "speculation-3-descending": (
        (10, 4000, 2000, 10, 3, 333),
        330,
        [(2000,), (1990, 1970, 1930), (1850, 1690, 1370), (730, 10), (190, 370, 550),
         (230, 280, 320), (330, 340, 350)],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_plan_probes_pinned_batches(name):
    (low, high, pivot, granularity, speculation, capacity), answer, batches = (
        PINNED_PLANS[name]
    )
    plan = plan_probes(low, high, pivot, granularity, speculation)
    asked = []
    try:
        batch = next(plan)
        while True:
            asked.append(batch)
            batch = plan.send({t: t <= capacity for t in batch})
    except StopIteration as stop:
        best = stop.value
    assert (best, asked) == (answer, batches)


class RecordingRunner:
    """A runner stub: every run glitches above *capacity* terminals, and
    the run tagged *fail_tag* errors.  Records every request's tag."""

    def __init__(self, capacity, fail_tag=None):
        self.capacity = capacity
        self.fail_tag = fail_tag
        self.tags = []

    def run_batch(self, requests):
        self.tags.extend(request.tag for request in requests)
        return [
            runner_module.RunOutcome(
                request.tag,
                request.config,
                None if request.tag == self.fail_tag
                else FakeMetrics(glitches=int(request.config.terminals > self.capacity)),
                0.0,
                error="boom" if request.tag == self.fail_tag else None,
            )
            for request in requests
        ]


def test_probe_tags_and_request_order():
    runner = RecordingRunner(capacity=225)
    find_max_terminals(config(), hint=200, granularity=25, replications=2, runner=runner)
    assert runner.tags[:6] == [
        "search t=200 seed=1",
        "search t=200 seed=2",
        "search t=225 seed=1",
        "search t=225 seed=2",
        "search t=275 seed=1",
        "search t=275 seed=2",
    ]
    runner = RecordingRunner(capacity=225)
    find_max_terminals(config(), hint=200, granularity=25, runner=runner, tag="fig")
    assert runner.tags[0] == "fig t=200 seed=1"


def test_failed_probe_aborts_with_its_tag():
    runner = RecordingRunner(capacity=225, fail_tag="search t=225 seed=1")
    with pytest.raises(RuntimeError, match=r"^search probe search t=225 seed=1 failed: boom$"):
        find_max_terminals(config(), hint=200, granularity=25, runner=runner)
