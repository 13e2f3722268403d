"""Third-party components plug in through the registries alone.

These tests register a new scheduler, layout, and replacement policy
via the public ``register_*`` entry points and run full simulations
selecting them by spec — without modifying ``repro.core.system`` (or
any other core module).  This is the extension contract the spec
redesign exists to provide.
"""

import pytest

from repro.api import (
    LayoutSpec,
    MB,
    ReplacementSpec,
    SchedulerSpec,
    SpiffiConfig,
    layout_names,
    register_layout,
    register_replacement,
    register_scheduler,
    replacement_names,
    run_simulation,
    scheduler_names,
)
from repro.bufferpool.policies import GlobalLru
from repro.layout.striped import StripedLayout
from repro.sched.elevator import ElevatorScheduler


def tiny_config(**overrides):
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=8,
        videos_per_disk=2,
        video_length_s=60.0,
        server_memory_bytes=64 * MB,
        start_spread_s=2.0,
        warmup_grace_s=2.0,
        measure_s=10.0,
        seed=5,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


class CountingLru(GlobalLru):
    """A plugin policy: global LRU that counts its insertions."""

    name = "counting_lru"

    def __init__(self):
        super().__init__()
        self.inserts = 0

    def on_insert(self, page, prefetched):
        self.inserts += 1
        super().on_insert(page, prefetched)


class TestSchedulerPlugin:
    def test_registered_scheduler_runs(self, scratch_registries):
        built = []

        def factory(spec):
            scheduler = ElevatorScheduler()
            built.append(scheduler)
            return scheduler

        register_scheduler("plugin_elevator", factory)
        assert "plugin_elevator" in scheduler_names()
        metrics = run_simulation(
            tiny_config(scheduler=SchedulerSpec("plugin_elevator"))
        )
        assert metrics.blocks_delivered > 0
        assert len(built) == 4  # one scheduler per disk

    def test_plugin_matches_builtin_it_wraps(self, scratch_registries):
        register_scheduler("plugin_elevator", lambda spec: ElevatorScheduler())
        plugin = run_simulation(
            tiny_config(scheduler=SchedulerSpec("plugin_elevator"))
        )
        builtin = run_simulation(tiny_config(scheduler=SchedulerSpec("elevator")))
        assert plugin.deterministic_dict() == builtin.deterministic_dict()


class TestLayoutPlugin:
    def test_registered_layout_runs(self, scratch_registries):
        register_layout(
            "plugin_striped",
            lambda counts, nodes, disks, block_size, rng: StripedLayout(
                counts, nodes, disks, block_size
            ),
        )
        assert "plugin_striped" in layout_names()
        metrics = run_simulation(tiny_config(layout=LayoutSpec("plugin_striped")))
        builtin = run_simulation(tiny_config(layout=LayoutSpec("striped")))
        assert metrics.deterministic_dict() == builtin.deterministic_dict()


class TestReplacementPlugin:
    def test_registered_policy_runs(self, scratch_registries):
        instances = []

        def factory():
            policy = CountingLru()
            instances.append(policy)
            return policy

        register_replacement("counting_lru", factory)
        assert "counting_lru" in replacement_names()
        metrics = run_simulation(
            tiny_config(replacement_policy=ReplacementSpec("counting_lru"))
        )
        assert metrics.blocks_delivered > 0
        assert len(instances) == 2  # one policy per node pool
        assert sum(policy.inserts for policy in instances) > 0


class TestRegistryErrors:
    def test_unknown_names_list_registry(self, scratch_registries):
        register_layout(
            "plugin_probe",
            lambda counts, nodes, disks, block_size, rng: StripedLayout(
                counts, nodes, disks, block_size
            ),
        )
        # The error message reflects the live registry, plugins included.
        with pytest.raises(ValueError, match="plugin_probe"):
            LayoutSpec("definitely_not_registered")

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_layout("", None)
        with pytest.raises(ValueError):
            register_replacement(None, GlobalLru)
        with pytest.raises(ValueError):
            register_scheduler(42, lambda spec: ElevatorScheduler())
