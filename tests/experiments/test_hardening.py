"""Failure containment in the experiment engine.

One crashed, hung, or poisoned run must never sink its batch: it is
retried once and then surfaced as an error :class:`RunOutcome`, and the
sweep drivers report the casualties only after the survivors finish.
"""

import dataclasses
import os

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.results import RunCache
from repro.experiments.runner import (
    ProcessExecutor,
    Runner,
    RunRequest,
    SerialExecutor,
    run_grid,
)
from repro.experiments.search import find_max_terminals
from repro.runnable import _REGISTRY, register_runnable

from tests.experiments.test_runner import example_metrics, tiny_config

#: A request whose "config" explodes inside any worker: the frozen
#: dataclass is only validated at construction, so a bogus payload
#: rides through pickling and crashes the runnable dispatch.
POISON = RunRequest(config="not a config", tag="poison")




@dataclasses.dataclass(frozen=True)
class DieOnceConfig:
    """A runnable whose first attempt kills its worker process.

    The first run to find *marker* missing creates it and exits the
    process without cleanup, as an OOM kill would; every later run
    (including the in-process retry) succeeds."""

    marker: str
    terminals: int = 2
    seed: int = 0

    @property
    def measure_s(self) -> float:
        return 1.0

    def replace(self, **changes) -> "DieOnceConfig":
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        return f"die-once terminals={self.terminals}"


def _die_once(config):
    if not os.path.exists(config.marker):
        open(config.marker, "w").close()
        os._exit(1)
    return example_metrics(terminals=config.terminals)


@pytest.fixture()
def die_once_registered():
    register_runnable(
        DieOnceConfig,
        kind="die-once",
        run=_die_once,
        cache_dict=lambda config: {"die-once": dataclasses.asdict(config)},
    )
    try:
        yield
    finally:
        del _REGISTRY[DieOnceConfig]


class TestSerialExecutorContainment:
    def test_crash_becomes_error_outcome(self):
        outcome = SerialExecutor().run_batch([POISON])[0]
        assert outcome.failed
        assert outcome.metrics is None
        assert outcome.tag == "poison"
        assert "TypeError" in outcome.error

    def test_crash_keeps_siblings(self):
        outcomes = SerialExecutor().run_batch(
            [RunRequest(tiny_config(), tag="good"), POISON]
        )
        assert not outcomes[0].failed
        assert outcomes[0].metrics.terminals == 4
        assert outcomes[1].failed

    def test_flaky_run_succeeds_on_the_single_retry(self, monkeypatch):
        attempts = []

        def flaky(config):
            attempts.append(config)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return example_metrics()

        monkeypatch.setattr(runner_module, "run", flaky)
        outcome = SerialExecutor().run_batch([RunRequest(tiny_config())])[0]
        assert not outcome.failed
        assert len(attempts) == 2

    def test_persistent_failure_stops_after_one_retry(self, monkeypatch):
        attempts = []

        def broken(config):
            attempts.append(config)
            raise RuntimeError("still broken")

        monkeypatch.setattr(runner_module, "run", broken)
        outcome = SerialExecutor().run_batch([RunRequest(tiny_config())])[0]
        assert outcome.failed
        assert "still broken" in outcome.error
        assert len(attempts) == 2


class TestProcessExecutorContainment:
    def test_worker_crash_becomes_error_outcome(self):
        with ProcessExecutor(jobs=2) as executor:
            outcomes = executor.run_batch(
                [RunRequest(tiny_config(), tag="good"), POISON]
            )
        assert not outcomes[0].failed
        assert outcomes[1].failed
        assert outcomes[1].metrics is None

    def test_watchdog_expiry_becomes_error_outcome(self):
        """A run that cannot finish inside ``max_wall_s`` is killed off
        (pool recycled) and reported, not waited on forever."""
        request = RunRequest(tiny_config(), tag="hung", max_wall_s=0.001)
        with ProcessExecutor(jobs=1) as executor:
            outcome = executor.run_batch([request])[0]
        assert outcome.failed
        assert "max_wall_s" in outcome.error

    def test_pool_survives_the_watchdog_for_later_requests(self):
        with ProcessExecutor(jobs=1) as executor:
            hung = executor.run_batch(
                [RunRequest(tiny_config(), max_wall_s=0.001)]
            )[0]
            healthy = executor.run_batch([RunRequest(tiny_config())])[0]
        assert hung.failed
        assert not healthy.failed
        assert healthy.metrics.terminals == 4


    def test_broken_pool_is_rebuilt_and_later_requests_resubmitted(
        self, tmp_path, monkeypatch, die_once_registered
    ):
        """A worker that dies mid-run breaks the whole pool: the pool
        is replaced, every request still pending is resubmitted to the
        new one, and the victim is retried in-process."""
        recycled, resubmitted = [], []
        recycle = ProcessExecutor._recycle_pool
        resubmit = ProcessExecutor._resubmit_pending

        def recording_recycle(self):
            recycled.append(self._pool)
            recycle(self)

        def recording_resubmit(self, futures, requests, index):
            resubmitted.append(index)
            resubmit(self, futures, requests, index)

        monkeypatch.setattr(ProcessExecutor, "_recycle_pool", recording_recycle)
        monkeypatch.setattr(ProcessExecutor, "_resubmit_pending", recording_resubmit)
        marker = str(tmp_path / "died")
        requests = [
            RunRequest(DieOnceConfig(marker, terminals=n), tag=f"run-{n}")
            for n in range(2, 8)
        ]
        with ProcessExecutor(jobs=2) as executor:
            first_pool = executor._ensure_pool()
            outcomes = executor.run_batch(requests)
            assert executor._pool is not None
            assert executor._pool is not first_pool
            later = executor.run_batch([RunRequest(DieOnceConfig(marker, terminals=9))])
        assert os.path.exists(marker)
        # One break, one recycle: the resubmitted later requests ran on
        # the new pool instead of each meeting the broken one.
        assert recycled == [first_pool]
        assert len(resubmitted) == 1 and resubmitted[0] < len(requests) - 1
        assert [outcome.tag for outcome in outcomes] == [r.tag for r in requests]
        assert not any(outcome.failed for outcome in outcomes)
        assert [outcome.metrics.terminals for outcome in outcomes] == list(range(2, 8))
        assert not later[0].failed and later[0].metrics.terminals == 9


class TestRunnerAndDrivers:
    def test_error_outcomes_are_never_cached(self, tmp_path, monkeypatch):
        def broken(config):
            raise RuntimeError("doomed")

        monkeypatch.setattr(runner_module, "run", broken)
        config = tiny_config()
        cache = RunCache(str(tmp_path / "cache"))
        runner = Runner(SerialExecutor(), cache=cache)
        outcome = runner.run(RunRequest(config))
        assert outcome.failed
        assert cache.load(config) is None  # nothing stored
        # Rerunning the config actually reruns it — no replayed failure.
        assert runner.run(RunRequest(config)).cached is False

    def test_run_grid_raises_after_finishing_the_batch(self):
        with pytest.raises(RuntimeError, match="poison"):
            run_grid(
                [("good", tiny_config()), ("poison", "not a config")],
                runner=Runner(SerialExecutor()),
            )

    def test_search_surfaces_probe_errors(self, monkeypatch):
        def broken(config):
            raise RuntimeError("probe exploded")

        monkeypatch.setattr(runner_module, "run", broken)
        with pytest.raises(RuntimeError, match="probe exploded"):
            find_max_terminals(
                tiny_config(), hint=4, granularity=2, low=2, high=8,
                runner=Runner(SerialExecutor()),
            )
