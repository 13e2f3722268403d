"""Tests for the max-sustainable-rate search.

Plan-level behaviour runs against a stubbed simulator (an oracle with a
known capacity); the executor-determinism and cache tests run *real*
tiny simulations, since stubbing would bypass exactly what they verify.
"""

import dataclasses

import pytest

import repro.experiments.runner as runner_module
from repro import MB, SpiffiConfig
from repro.experiments.results import RunCache
from repro.experiments.runner import ProcessExecutor, Runner, SerialExecutor
from repro.workload import ArrivalSpec, SloPolicy, find_max_rate


@dataclasses.dataclass
class FakeMetrics:
    glitches: int
    startup_p99_s: float = 0.0
    rejection_rate: float = 0.0


class Oracle:
    """Pretends the true sustainable rate is `capacity` arrivals/min."""

    def __init__(self, capacity_per_min):
        self.capacity = capacity_per_min
        self.calls = []

    def __call__(self, config):
        rate_per_min = config.workload.rate_per_s * 60.0
        self.calls.append((round(rate_per_min), config.seed))
        over = rate_per_min > self.capacity + 1e-9
        return FakeMetrics(glitches=12 if over else 0)


@pytest.fixture()
def patch_runner(monkeypatch):
    def apply(oracle):
        monkeypatch.setattr(runner_module, "run", oracle)
        return oracle

    return apply


def base_config():
    return SpiffiConfig(terminals=1, measure_s=10.0)


def poisson_workload(rate_per_s: float) -> ArrivalSpec:
    return ArrivalSpec(
        process="poisson", rate_per_s=rate_per_s, mean_view_duration_s=15.0
    )


class TestRateSearchPlan:
    def test_finds_exact_boundary(self, patch_runner):
        patch_runner(Oracle(capacity_per_min=310))
        result = find_max_rate(
            base_config(), poisson_workload, hint=120, granularity=30
        )
        assert result.max_rate_per_min == 300
        assert result.max_rate_per_s == pytest.approx(5.0)

    def test_results_snap_to_granularity(self, patch_runner):
        patch_runner(Oracle(capacity_per_min=310))
        result = find_max_rate(
            base_config(), poisson_workload, hint=120, granularity=120
        )
        assert result.max_rate_per_min == 240
        assert result.max_rate_per_min % 120 == 0

    def test_hint_above_descends(self, patch_runner):
        patch_runner(Oracle(capacity_per_min=60))
        result = find_max_rate(
            base_config(), poisson_workload, hint=600, granularity=60
        )
        assert result.max_rate_per_min == 60

    def test_nothing_sustainable_reports_below_low(self, patch_runner):
        patch_runner(Oracle(capacity_per_min=0))
        result = find_max_rate(
            base_config(), poisson_workload, hint=60, granularity=60, low=60
        )
        assert result.max_rate_per_min == 0
        assert result.metrics_at_max() is None

    def test_no_duplicate_probes(self, patch_runner):
        oracle = patch_runner(Oracle(capacity_per_min=300))
        find_max_rate(base_config(), poisson_workload, hint=240, granularity=60)
        assert len(oracle.calls) == len(set(oracle.calls))

    def test_probes_recorded_with_verdicts(self, patch_runner):
        patch_runner(Oracle(capacity_per_min=120))
        result = find_max_rate(
            base_config(), poisson_workload, hint=120, granularity=60, high=240
        )
        assert result.runs == len(result.probes)
        by_rate = {probe.rate_per_min: probe for probe in result.probes}
        assert by_rate[120].sustainable
        assert not by_rate[180].sustainable
        assert result.metrics_at_max().glitches == 0

    def test_slo_bounds_checked(self, patch_runner):
        class SlowStartOracle(Oracle):
            def __call__(self, config):
                metrics = super().__call__(config)
                rate = config.workload.rate_per_s * 60.0
                return FakeMetrics(
                    glitches=0, startup_p99_s=20.0 if rate > 120 else 1.0
                )

        patch_runner(SlowStartOracle(capacity_per_min=10**9))
        result = find_max_rate(
            base_config(),
            poisson_workload,
            slo=SloPolicy(max_p99_startup_s=10.0),
            hint=120,
            granularity=60,
        )
        assert result.max_rate_per_min == 120

    def test_replications_must_all_be_sustainable(self, patch_runner):
        class SeedOracle(Oracle):
            """Seed 2 sustains 120/min less than seed 1."""

            def __call__(self, config):
                metrics = super().__call__(config)
                rate_per_min = config.workload.rate_per_s * 60.0
                if config.seed == 2 and rate_per_min > self.capacity - 120:
                    return FakeMetrics(glitches=3)
                return metrics

        oracle = patch_runner(SeedOracle(capacity_per_min=480))
        result = find_max_rate(
            base_config(), poisson_workload, hint=240, granularity=60, replications=2
        )
        assert base_config().seed == 1
        assert result.max_rate_per_min == 360
        by_rate = {}
        for probe in result.probes:
            by_rate.setdefault(probe.rate_per_min, []).append(probe)
        assert all([p.seed for p in probes] == [1, 2] for probes in by_rate.values())
        # 420/min passes on seed 1 only, so it is not sustainable.
        assert [p.sustainable for p in by_rate[420]] == [True, False]
        assert result.metrics_at_max() is by_rate[360][0].metrics
        assert len(oracle.calls) == result.runs

    def test_validation(self, patch_runner):
        patch_runner(Oracle(capacity_per_min=100))
        with pytest.raises(ValueError):
            find_max_rate(base_config(), poisson_workload, granularity=0)
        with pytest.raises(ValueError):
            find_max_rate(base_config(), poisson_workload, replications=0)
        with pytest.raises(ValueError):
            find_max_rate(base_config(), poisson_workload, low=600, high=60)
        with pytest.raises(ValueError):
            SloPolicy(max_p99_startup_s=0.0)
        with pytest.raises(ValueError):
            SloPolicy(max_rejection_rate=1.5)
        with pytest.raises(ValueError):
            SloPolicy(max_glitches=-1)


class RecordingRunner:
    """A runner stub over :class:`Oracle`; the run tagged *fail_tag*
    errors.  Records every request's tag."""

    def __init__(self, capacity_per_min, fail_tag=None):
        self.oracle = Oracle(capacity_per_min)
        self.fail_tag = fail_tag
        self.tags = []

    def run_batch(self, requests):
        self.tags.extend(request.tag for request in requests)
        return [
            runner_module.RunOutcome(
                request.tag,
                request.config,
                None if request.tag == self.fail_tag else self.oracle(request.config),
                0.0,
                error="boom" if request.tag == self.fail_tag else None,
            )
            for request in requests
        ]


class TestRateSearchRequests:
    def test_probe_tags_and_request_order(self):
        runner = RecordingRunner(capacity_per_min=300)
        find_max_rate(
            base_config(), poisson_workload, hint=240, granularity=60, replications=2,
            runner=runner,
        )
        assert runner.tags[:6] == [
            "saturation rate=240/min seed=1",
            "saturation rate=240/min seed=2",
            "saturation rate=300/min seed=1",
            "saturation rate=300/min seed=2",
            "saturation rate=420/min seed=1",
            "saturation rate=420/min seed=2",
        ]
        runner = RecordingRunner(capacity_per_min=300)
        find_max_rate(
            base_config(), poisson_workload, hint=240, granularity=60, runner=runner,
            tag="cell",
        )
        assert runner.tags[0] == "cell rate=240/min seed=1"

    def test_failed_probe_aborts_with_its_tag(self):
        runner = RecordingRunner(
            capacity_per_min=300, fail_tag="saturation rate=300/min seed=1"
        )
        with pytest.raises(
            RuntimeError,
            match=r"^saturation probe saturation rate=300/min seed=1 failed: boom$",
        ):
            find_max_rate(
                base_config(), poisson_workload, hint=240, granularity=60, runner=runner
            )


def tiny_real_config():
    """Small enough that a full rate search takes a few seconds."""
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=1,
        videos_per_disk=1,
        video_length_s=120.0,
        server_memory_bytes=64 * MB,
        zipf_skew=0.2,
        start_spread_s=2.0,
        warmup_grace_s=2.0,
        measure_s=6.0,
        seed=3,
    )


def tiny_workload(rate_per_s: float) -> ArrivalSpec:
    return ArrivalSpec(
        process="poisson", rate_per_s=rate_per_s, mean_view_duration_s=10.0
    )


def tiny_search(runner):
    return find_max_rate(
        tiny_real_config(),
        tiny_workload,
        slo=SloPolicy(max_p99_startup_s=5.0),
        hint=120,
        granularity=60,
        low=60,
        high=360,
        runner=runner,
    )


class TestExecutorDeterminism:
    def test_serial_and_process_pool_agree(self):
        serial = tiny_search(Runner(SerialExecutor()))
        with ProcessExecutor(jobs=4) as executor:
            parallel = tiny_search(Runner(executor))
        assert parallel.max_rate_per_min == serial.max_rate_per_min
        assert len(parallel.probes) == len(serial.probes)
        for a, b in zip(serial.probes, parallel.probes):
            assert a.rate_per_min == b.rate_per_min
            assert a.metrics.deterministic_dict() == b.metrics.deterministic_dict()

    def test_rerun_is_all_cache_hits(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        seen = []
        runner = Runner(
            SerialExecutor(), cache=cache, progress=lambda o: seen.append(o.cached)
        )
        first = tiny_search(runner)
        assert seen and not any(seen)
        seen.clear()
        second = tiny_search(runner)
        assert seen and all(seen)
        assert second.max_rate_per_min == first.max_rate_per_min
        for a, b in zip(first.probes, second.probes):
            assert a.metrics == b.metrics
