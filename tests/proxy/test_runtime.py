"""The proxy runtime against a live standalone system: pre-loading,
hit/miss accounting invariants, budget discipline, tracing, startup
improvement, and determinism."""

import pytest

from repro.bufferpool.pool import BufferPool
from repro.bufferpool.registry import ReplacementSpec
from repro.core.config import MB, SpiffiConfig
from repro.core.system import SpiffiSystem, run_simulation
from repro.proxy import ProxySpec, prefix_block_count
from repro.proxy.runtime import ProxyRuntime
from repro.sim.environment import Environment
from repro.telemetry import trace as trace_events
from repro.workload import ArrivalSpec


def open_config(**overrides):
    """A small open-system run; 8 titles of 600 s at ~0.5 MB/block."""
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=1,  # ignored once the workload is open
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=64 * MB,
        start_spread_s=4.0,
        warmup_grace_s=6.0,
        measure_s=30.0,
        seed=7,
        workload=ArrivalSpec(
            process="poisson",
            rate_per_s=0.5,
            mean_view_duration_s=20.0,
        ),
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


def proxied(prefix_s=20.0, memory_bytes=48 * MB, **spec_over):
    return open_config(
        proxy=ProxySpec(
            prefix_s=prefix_s, memory_bytes=memory_bytes, **spec_over
        )
    )


class TestPrefixBlockCount:
    class Sequence:
        def __init__(self, frame_count, fps):
            self.frame_count = frame_count
            self.fps = fps

    class Schedule:
        def __init__(self, sequence, block_size, first_frame):
            self.sequence = sequence
            self.block_size = block_size
            self.first_frame = first_frame
            self.block_count = len(first_frame)

    def schedule(self, frames=10, fps=2.0, bytes_per_frame=100):
        # Blocks of 250 bytes start inside frames 0, 2, 5 and 7.
        block_size = 250
        first_frame = [
            start // bytes_per_frame
            for start in range(0, frames * bytes_per_frame, block_size)
        ]
        return self.Schedule(self.Sequence(frames, fps), block_size, first_frame)

    def test_zero_prefix_is_zero_blocks(self):
        assert prefix_block_count(self.schedule(), 0.0) == 0

    def test_rounds_up_to_whole_blocks(self):
        # 2 s at 2 fps = 4 frames = 400 bytes = 1.6 blocks -> 2.
        assert prefix_block_count(self.schedule(), 2.0) == 2

    def test_caps_at_the_title_length(self):
        assert prefix_block_count(self.schedule(), 1e9) == 4


class TestInsertResident:
    def make_pool(self, capacity=4):
        env = Environment()
        pool = BufferPool(env, capacity, ReplacementSpec().build())
        return env, pool

    def test_inserts_a_loaded_unpinned_page(self):
        env, pool = self.make_pool()
        page = pool.insert_resident(("v", 0), 100)
        assert page is not None
        assert not page.in_flight
        assert page.pins == 0
        assert pool.pages[("v", 0)] is page

    def test_schedules_no_simulation_events(self):
        env, pool = self.make_pool()
        pool.insert_resident(("v", 0), 100, prefetched=True)
        assert env.peek() is None or env.peek() == float("inf")

    def test_duplicate_returns_none(self):
        env, pool = self.make_pool()
        assert pool.insert_resident(("v", 0), 100) is not None
        assert pool.insert_resident(("v", 0), 100) is None

    def test_never_evicts_past_capacity(self):
        env, pool = self.make_pool(capacity=2)
        assert pool.insert_resident(("v", 0), 100) is not None
        assert pool.insert_resident(("v", 1), 100) is not None
        assert pool.insert_resident(("v", 2), 100) is None
        assert len(pool.pages) == 2

    def test_prefetched_flag_counts_toward_residency(self):
        env, pool = self.make_pool()
        pool.insert_resident(("v", 0), 100, prefetched=True)
        assert pool.prefetched_resident == 1


class TestConstruction:
    def test_preload_respects_the_budget(self):
        system = SpiffiSystem(proxied(memory_bytes=4 * MB))  # 8 blocks
        runtime = system.proxy_runtime
        assert runtime.preloaded_pages == runtime.pool.capacity_pages == 8
        assert len(runtime.pool.pages) <= runtime.pool.capacity_pages

    def test_full_budget_holds_every_prefix(self):
        system = SpiffiSystem(proxied(prefix_s=10.0, memory_bytes=48 * MB))
        runtime = system.proxy_runtime
        assert runtime.preloaded_pages == sum(runtime.prefix_blocks)

    def test_serves_only_inside_the_prefix_window(self):
        system = SpiffiSystem(proxied(prefix_s=10.0))
        runtime = system.proxy_runtime
        depth = runtime.prefix_blocks[0]
        assert depth > 0
        assert runtime.serves(0, 0)
        assert runtime.serves(0, depth - 1)
        assert not runtime.serves(0, depth)
        assert not runtime.serves(-1, 0)
        assert not runtime.serves(len(runtime.prefix_blocks), 0)

    def test_disabled_spec_builds_no_proxy(self):
        system = SpiffiSystem(open_config())
        assert system.proxy_runtime is None
        assert system.proxy is None

    def test_mismatched_weights_are_rejected(self):
        system = SpiffiSystem(open_config())
        schedules = [v.schedule(system.config.stripe_bytes) for v in system.library]
        with pytest.raises(ValueError, match="weights"):
            ProxyRuntime(
                system.env,
                ProxySpec(prefix_s=10.0, memory_bytes=4 * MB),
                schedules=schedules,
                weights=[1.0],
                block_size=system.config.stripe_bytes,
                forward_bus=system.bus,
                control_message_bytes=system.config.control_message_bytes,
            )


class TestAccountingInvariants:
    def run_system(self, config):
        system = SpiffiSystem(config)
        metrics = system.run()
        return system, metrics

    def test_hits_plus_misses_equals_requests(self):
        system, metrics = self.run_system(proxied(memory_bytes=4 * MB))
        stats = system.proxy_runtime.stats
        assert stats.requests > 0
        assert stats.hits + stats.misses == stats.requests
        assert metrics.proxy_requests == stats.requests
        assert metrics.proxy_hits == stats.hits
        assert metrics.proxy_misses == stats.misses

    def test_resident_bytes_never_exceed_the_budget(self):
        system, _ = self.run_system(proxied(memory_bytes=4 * MB))
        pool = system.proxy_runtime.pool
        resident = sum(page.size for page in pool.pages.values())
        assert resident <= system.config.proxy.memory_bytes

    def test_full_coverage_serves_every_startup_from_memory(self):
        # Budget >= every prefix block: after pre-load nothing misses.
        system, metrics = self.run_system(
            proxied(prefix_s=10.0, memory_bytes=48 * MB)
        )
        stats = system.proxy_runtime.stats
        assert stats.requests > 0
        assert stats.misses == 0
        assert stats.hit_rate == 1.0
        assert metrics.proxy_served_bytes > 0
        assert metrics.proxy_origin_bytes == 0

    def test_tight_budget_misses_and_fills(self):
        system, metrics = self.run_system(proxied(memory_bytes=4 * MB))
        stats = system.proxy_runtime.stats
        assert stats.misses > 0
        assert metrics.proxy_origin_bytes > 0

    def test_metrics_expose_the_hit_rate(self):
        _, metrics = self.run_system(proxied(prefix_s=10.0, memory_bytes=48 * MB))
        assert metrics.proxy_hit_rate == 1.0
        assert "proxy" in metrics.summary()

    def test_disabled_proxy_reports_inert_zeros(self):
        _, metrics = self.run_system(open_config())
        assert metrics.proxy_requests == 0
        assert metrics.proxy_hit_rate == 0.0
        assert "proxy_requests" not in metrics.deterministic_dict()


class TestTracing:
    def test_proxy_events_are_recorded(self):
        system = SpiffiSystem(proxied(memory_bytes=4 * MB))
        recorder = system.enable_tracing()
        system.run()
        kinds = {event.kind for event in recorder.events()}
        assert trace_events.PROXY_HIT in kinds
        assert trace_events.PROXY_MISS in kinds
        assert trace_events.PROXY_FILL in kinds


class TestBehaviour:
    def test_proxy_cuts_startup_latency(self):
        base = run_simulation(open_config())
        edge = run_simulation(proxied(prefix_s=10.0, memory_bytes=48 * MB))
        assert edge.proxy_hits > 0
        assert edge.mean_startup_latency_s < base.mean_startup_latency_s

    def test_love_prefetch_ablation_runs(self):
        metrics = run_simulation(
            proxied(
                memory_bytes=4 * MB,
                replacement=ReplacementSpec("love_prefetch"),
            )
        )
        assert metrics.proxy_requests > 0

    def test_runs_are_deterministic(self):
        config = proxied(memory_bytes=4 * MB)
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.deterministic_dict() == second.deterministic_dict()

    def test_proxy_changes_the_simulation(self):
        base = run_simulation(open_config())
        edge = run_simulation(proxied(memory_bytes=4 * MB))
        assert base.deterministic_dict() != edge.deterministic_dict()
