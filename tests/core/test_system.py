"""End-to-end tests of the assembled system (small configurations)."""

import dataclasses

import pytest

from repro import LayoutSpec, MB, ReplacementSpec, SpiffiConfig, SpiffiSystem, run_simulation
from repro.cluster import ClusterConfig, SpiffiCluster
from repro.prefetch import PrefetchSpec
from repro.sched import SchedulerSpec
from repro.sharing import SharingSpec


def tiny_config(**overrides):
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=8,
        videos_per_disk=2,
        video_length_s=60.0,
        server_memory_bytes=64 * MB,
        stripe_bytes=256 * 1024,
        terminal_memory_bytes=1 * MB,
        start_spread_s=2.0,
        warmup_grace_s=3.0,
        measure_s=20.0,
        seed=11,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


class TestEndToEnd:
    def test_light_load_glitch_free(self):
        metrics = run_simulation(tiny_config())
        assert metrics.glitches == 0
        assert metrics.blocks_delivered > 0
        assert 0 < metrics.disk_utilization_mean < 1.0

    def test_metrics_cover_measurement_window_only(self):
        config = tiny_config()
        metrics = run_simulation(config)
        # ~0.5 blocks/s per terminal at 4 Mbit/s with 256 KB blocks is
        # 2/s; 8 terminals over 20s ≈ 320 blocks at most.
        assert metrics.blocks_delivered <= 8 * 2.1 * config.measure_s

    def test_determinism_same_seed(self):
        a = run_simulation(tiny_config())
        b = run_simulation(tiny_config())
        assert a == b

    def test_different_seed_differs(self):
        a = run_simulation(tiny_config(seed=1))
        b = run_simulation(tiny_config(seed=2))
        assert a != b

    def test_overload_produces_glitches(self):
        # 4 disks * 7.4 MB/s ≈ 30 MB/s; 120 terminals need 60 MB/s.
        metrics = run_simulation(tiny_config(terminals=120))
        assert metrics.glitches > 0
        assert metrics.glitching_terminals > 0

    def test_network_peak_tracks_load(self):
        metrics = run_simulation(tiny_config())
        per_terminal = 4e6 / 8  # bytes/s of compressed video
        assert metrics.network_peak_bytes_per_s >= per_terminal
        assert metrics.network_peak_bytes_per_s < 40 * per_terminal

    def test_cpu_utilization_low_as_paper_claims(self):
        metrics = run_simulation(tiny_config())
        assert metrics.cpu_utilization_mean < 0.2

    @pytest.mark.parametrize("second", ["start_after_run", "run_after_start"])
    @pytest.mark.parametrize("kind", ["standalone", "cluster"])
    def test_run_twice_rejected(self, kind, second):
        if kind == "standalone":
            system = SpiffiSystem(tiny_config(measure_s=5.0))
        else:
            system = SpiffiCluster(ClusterConfig(node=tiny_config(measure_s=5.0)))
        first, again = (
            (system.run, system.start)
            if second == "start_after_run"
            else (system.start, system.run)
        )
        first()
        with pytest.raises(RuntimeError, match=type(system).__name__):
            again()

    def test_disk_utilizations_per_disk(self):
        system = SpiffiSystem(tiny_config())
        system.run()
        utils = system.disk_utilizations()
        assert len(utils) == 4
        assert all(0 <= u <= 1 for u in utils)


class TestAlgorithmWiring:
    @pytest.mark.parametrize("name", ["elevator", "round_robin", "gss", "realtime", "fcfs", "edf"])
    def test_every_scheduler_runs(self, name):
        config = tiny_config(
            scheduler=SchedulerSpec(name), measure_s=10.0, terminals=4
        )
        metrics = run_simulation(config)
        assert metrics.blocks_delivered > 0

    @pytest.mark.parametrize("mode", ["none", "standard", "realtime", "delayed"])
    def test_every_prefetch_mode_runs(self, mode):
        config = tiny_config(
            prefetch=PrefetchSpec(mode), measure_s=10.0, terminals=4
        )
        metrics = run_simulation(config)
        assert metrics.blocks_delivered > 0

    @pytest.mark.parametrize(
        "policy", [ReplacementSpec("global_lru"), ReplacementSpec("love_prefetch")]
    )
    def test_every_policy_runs(self, policy):
        metrics = run_simulation(
            tiny_config(replacement_policy=policy, measure_s=10.0, terminals=4)
        )
        assert metrics.blocks_delivered > 0

    def test_nonstriped_layout_runs(self):
        metrics = run_simulation(tiny_config(layout=LayoutSpec("nonstriped"), measure_s=10.0))
        assert metrics.blocks_delivered > 0

    def test_prefetching_yields_buffer_hits(self):
        with_prefetch = run_simulation(tiny_config(prefetch=PrefetchSpec("standard")))
        without = run_simulation(tiny_config(prefetch=PrefetchSpec("none")))
        assert with_prefetch.buffer_hit_rate > without.buffer_hit_rate

    def test_piggyback_increases_sharing(self):
        # A small pool makes accidental sharing between staggered
        # streams impossible, while exactly-synchronised piggybacked
        # streams still merge onto the same pages and I/Os.
        base = tiny_config(
            terminals=12,
            initial_position_fraction=0.0,
            start_spread_s=10.0,
            warmup_grace_s=35.0,
            measure_s=15.0,
            zipf_skew=1.5,
            server_memory_bytes=8 * MB,
        )
        solo = run_simulation(base)
        batched = run_simulation(
            base.replace(sharing=SharingSpec(policy="batch", window_s=20.0))
        )
        assert batched.rereference_rate > solo.rereference_rate

    def test_metrics_are_frozen_dataclass(self):
        metrics = run_simulation(tiny_config(measure_s=5.0, terminals=2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            metrics.glitches = 5
