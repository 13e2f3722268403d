"""The unified ``run()`` entry point and its registry: dispatch by
config type, third-party registration, the legacy wrappers' type
guards, and cache integration."""

import dataclasses

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.core.system import run_simulation
from repro.experiments.results import RunCache, config_digest, config_to_dict
from repro.experiments.runner import Runner, RunRequest, SerialExecutor
from repro.runnable import (
    RunnableConfig,
    register_runnable,
    run,
    runnable_entry,
    runnable_kinds,
)

from tests.experiments.test_runner import example_metrics, tiny_config


class TestDispatch:
    def test_spiffi_config_dispatches_to_the_system(self):
        assert runnable_entry(tiny_config()).kind == "system"

    def test_cluster_config_dispatches_to_the_cluster(self):
        assert runnable_entry(ClusterConfig(node=tiny_config())).kind == "cluster"

    def test_run_executes_a_standalone_config(self):
        metrics = run(tiny_config())
        assert metrics.terminals == 4
        assert metrics.events_processed > 0

    def test_run_and_the_legacy_wrapper_agree(self):
        config = tiny_config()
        assert (
            run(config).deterministic_dict()
            == run_simulation(config).deterministic_dict()
        )

    def test_run_and_run_cluster_agree(self):
        config = ClusterConfig(node=tiny_config())
        assert (
            run(config).deterministic_dict()
            == run_cluster(config).deterministic_dict()
        )

    def test_unregistered_type_raises_with_the_known_kinds(self):
        with pytest.raises(TypeError, match="cluster, system"):
            run("not a config")

    def test_builtin_kinds_are_listed(self):
        assert set(runnable_kinds()) >= {"cluster", "system"}

    def test_configs_satisfy_the_protocol(self):
        assert isinstance(tiny_config(), RunnableConfig)
        assert isinstance(ClusterConfig(node=tiny_config()), RunnableConfig)


class TestLegacyWrapperGuards:
    def test_run_simulation_rejects_cluster_configs(self):
        with pytest.raises(TypeError, match="repro.api.run"):
            run_simulation(ClusterConfig(node=tiny_config()))

    def test_run_cluster_rejects_spiffi_configs(self):
        with pytest.raises(TypeError, match="repro.api.run"):
            run_cluster(tiny_config())


@dataclasses.dataclass(frozen=True)
class EchoConfig:
    """A minimal third-party runnable for registration tests."""

    seed: int = 3
    terminals: int = 2

    @property
    def measure_s(self) -> float:
        return 1.0

    def replace(self, **changes) -> "EchoConfig":
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        return f"echo seed={self.seed}"


def _echo_run(config):
    return example_metrics(terminals=config.terminals)


def _echo_cache_dict(config):
    return {"echo": {"seed": config.seed, "terminals": config.terminals}}


@pytest.fixture()
def echo_registered():
    register_runnable(
        EchoConfig, kind="echo", run=_echo_run, cache_dict=_echo_cache_dict
    )
    try:
        yield
    finally:
        from repro import runnable

        del runnable._REGISTRY[EchoConfig]


class TestThirdPartyRegistration:
    def test_registered_type_runs(self, echo_registered):
        assert run(EchoConfig(terminals=9)).terminals == 9
        assert "echo" in runnable_kinds()

    def test_protocol_accepts_the_custom_type(self, echo_registered):
        assert isinstance(EchoConfig(), RunnableConfig)

    def test_cache_dict_and_digest_flow_through(self, echo_registered):
        config = EchoConfig(seed=5)
        assert config_to_dict(config) == _echo_cache_dict(config)
        assert config_digest(config) != config_digest(EchoConfig(seed=6))

    def test_the_runner_and_cache_drive_it(self, echo_registered, tmp_path):
        runner = Runner(SerialExecutor(), cache=RunCache(str(tmp_path)))
        first = runner.run(RunRequest(EchoConfig(), tag="echo"))
        second = runner.run(RunRequest(EchoConfig(), tag="echo"))
        assert not first.failed and not first.cached
        assert second.cached
        assert (
            first.metrics.deterministic_dict()
            == second.metrics.deterministic_dict()
        )

    def test_reregistration_replaces_the_entry(self, echo_registered):
        register_runnable(
            EchoConfig,
            kind="echo",
            run=lambda config: example_metrics(terminals=99),
            cache_dict=_echo_cache_dict,
        )
        assert run(EchoConfig()).terminals == 99

    def test_bad_registrations_are_rejected(self):
        with pytest.raises(TypeError, match="class"):
            register_runnable(
                "EchoConfig", kind="echo", run=_echo_run, cache_dict=_echo_cache_dict
            )
        with pytest.raises(ValueError, match="kind"):
            register_runnable(
                EchoConfig, kind="", run=_echo_run, cache_dict=_echo_cache_dict
            )
