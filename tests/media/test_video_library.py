"""Tests for Video, BlockSchedule, VideoLibrary, and access models."""

import collections
import weakref

import pytest

from repro import MB, SpiffiConfig, run
from repro.cluster import (
    ClusterConfig,
    PlacementSpec,
    RouterSpec,
    SelfHealSpec,
    run_cluster,
)
from repro.faults.spec import FaultSpec
from repro.media import (
    BlockSchedule,
    FrameSequence,
    UniformAccess,
    VideoLibrary,
    ZipfianAccess,
    clear_sequence_cache,
    make_access_model,
)
from repro.media.library import _SEQUENCE_CACHE
from repro.proxy import ProxySpec
from repro.sim import RandomSource
from repro.workload import ArrivalSpec
from tests import pins

BLOCK = 64 * 1024


@pytest.fixture()
def library():
    return VideoLibrary(video_count=4, duration_s=10.0, block_size=BLOCK, seed=1)


class TestVideo:
    def test_schedule_cached(self, library):
        video = library[0]
        assert video.schedule(BLOCK) is video.schedule(BLOCK)

    def test_library_block_size_scheduled_at_build(self):
        clear_sequence_cache()
        library = VideoLibrary(2, 10.0, BLOCK, seed=3, search_speedup=4)
        # Every title, search copies too, holds its tables and nothing else.
        assert [list(video.sequence.schedules) for video in library] == [[BLOCK]] * 4

    def test_schedule_per_block_size(self, library):
        video = library[0]
        assert video.schedule(BLOCK) is not video.schedule(2 * BLOCK)

    def test_duration(self, library):
        assert library[0].duration_s == pytest.approx(10.0)


class TestBlockSchedule:
    def test_block_bytes_full_and_tail(self, library):
        schedule = library[0].schedule(BLOCK)
        assert schedule.block_bytes(0) == BLOCK
        tail = schedule.block_bytes(schedule.block_count - 1)
        assert 0 < tail <= BLOCK
        total = sum(schedule.block_bytes(k) for k in range(schedule.block_count))
        assert total == library[0].total_bytes

    def test_block_bytes_bounds(self, library):
        schedule = library[0].schedule(BLOCK)
        with pytest.raises(ValueError):
            schedule.block_bytes(-1)
        with pytest.raises(ValueError):
            schedule.block_bytes(schedule.block_count)

    def test_delivered_bytes_caps_at_total(self, library):
        schedule = library[0].schedule(BLOCK)
        assert schedule.delivered_bytes(1) == BLOCK
        assert (
            schedule.delivered_bytes(schedule.block_count + 5)
            == library[0].total_bytes
        )


class TestVideoLibrary:
    def test_count_and_ids(self, library):
        assert len(library) == 4
        assert [video.video_id for video in library] == [0, 1, 2, 3]

    def test_videos_differ(self, library):
        assert library[0].total_bytes != library[1].total_bytes

    def test_sequences_memoised_across_libraries(self):
        a = VideoLibrary(2, 10.0, BLOCK, seed=9)
        b = VideoLibrary(2, 10.0, BLOCK, seed=9)
        assert a[0].sequence is b[0].sequence

    def test_cache_clear(self):
        a = VideoLibrary(1, 10.0, BLOCK, seed=9)
        clear_sequence_cache()
        b = VideoLibrary(1, 10.0, BLOCK, seed=9)
        assert a[0].sequence is not b[0].sequence

    def test_total_bytes(self, library):
        assert library.total_bytes == sum(v.total_bytes for v in library)

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoLibrary(0, 10.0, BLOCK)


def small_config(terminals):
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        terminals=terminals,
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


TABLES = ("first_frame", "displayable", "edge_span", "straddles")


def memoised_schedules():
    return [
        schedule
        for sequence in _SEQUENCE_CACHE.values()
        for schedule in sequence.schedules.values()
    ]


class TestScheduleMemo:
    """One schedule per (memoised sequence, block size), shared process-wide."""

    def test_libraries_share_one_schedule(self):
        a = VideoLibrary(2, 10.0, BLOCK, seed=9)
        b = VideoLibrary(2, 10.0, BLOCK, seed=9)
        assert a[1].schedule(BLOCK) is b[1].schedule(BLOCK)

    def test_cache_clear_releases_schedules(self):
        library = VideoLibrary(1, 10.0, BLOCK, seed=4242)
        schedule = weakref.ref(library[0].schedule(BLOCK))
        sequence = weakref.ref(library[0].sequence)
        del library
        clear_sequence_cache()
        # No collection needed: clearing breaks the schedule cycle.
        assert schedule() is None
        assert sequence() is None

    def test_run_leaves_shared_tables_unchanged(self):
        clear_sequence_cache()
        run(small_config(terminals=8))
        schedules = memoised_schedules()
        assert schedules
        for schedule in schedules:
            fresh = BlockSchedule(schedule.sequence, schedule.block_size)
            for name in TABLES:
                shared = getattr(schedule, name)
                assert shared.tobytes() == getattr(fresh, name).tobytes(), name

    def test_digest_independent_of_earlier_runs(self):
        clear_sequence_cache()
        alone = run(small_config(terminals=10))
        clear_sequence_cache()
        run(small_config(terminals=6))
        earlier = memoised_schedules()
        after = run(small_config(terminals=10))
        assert pins.digest(after) == pins.digest(alone)
        assert after.events_processed == alone.events_processed
        # The second run reused the first run's schedules.
        assert {id(schedule) for schedule in earlier} <= {
            id(schedule) for schedule in memoised_schedules()
        }


def proxy_config():
    return SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        videos_per_disk=2,
        video_length_s=120.0,
        server_memory_bytes=64 * MB,
        start_spread_s=2.0,
        warmup_grace_s=3.0,
        measure_s=10.0,
        seed=7,
        workload=ArrivalSpec(process="poisson", rate_per_s=0.5, mean_view_duration_s=20.0),
        proxy=ProxySpec(prefix_s=20.0, memory_bytes=16 * MB),
    )


def self_heal_config():
    """Three members, two copies of each title; node 1 fails and its
    titles are rebuilt onto the survivors."""
    member = SpiffiConfig(
        nodes=2,
        disks_per_node=2,
        videos_per_disk=2,
        video_length_s=4.0,
        server_memory_bytes=64 * MB,
        start_spread_s=2.0,
        warmup_grace_s=4.0,
        measure_s=12.0,
    )
    return ClusterConfig(
        node=member,
        nodes=3,
        placement=PlacementSpec("chained-declustered", replicas=2),
        routing=RouterSpec("locality"),
        workload=ArrivalSpec(process="poisson", rate_per_s=4.0, mean_view_duration_s=30.0),
        faults=FaultSpec(fail_node_ids=(1,), fail_nodes_at_s=8.0),
        self_heal=SelfHealSpec(rebuild=True),
    )


class TestGenerationCount:
    """A process generates each title's frame offsets exactly once: the
    library schedules the stripe size as it builds, and every consumer
    (terminals, servers, proxy, rebuild copies) reads those tables.  A
    repeated run reuses them."""

    @pytest.fixture()
    def generations(self, monkeypatch):
        clear_sequence_cache()
        counts = collections.Counter()
        generate = FrameSequence._generate

        def counting(sequence, workspace):
            counts[sequence.profile, sequence.duration_s, sequence.seed] += 1
            return generate(sequence, workspace)

        monkeypatch.setattr(FrameSequence, "_generate", counting)
        yield counts
        clear_sequence_cache()

    def test_closed_run(self, generations):
        for _ in range(2):
            run(small_config(terminals=8))
        assert len(generations) == 8
        assert set(generations.values()) == {1}

    def test_proxy_run(self, generations):
        for _ in range(2):
            metrics = run(proxy_config())
        assert metrics.proxy_requests > 0
        assert len(generations) == 8
        assert set(generations.values()) == {1}

    def test_self_heal_run(self, generations):
        for _ in range(2):
            metrics = run_cluster(self_heal_config())
        assert metrics.node_rebuild_bytes > 0
        assert len(generations) == len(_SEQUENCE_CACHE) >= 8
        assert set(generations.values()) == {1}


class TestAccessModels:
    def test_factory(self):
        assert isinstance(make_access_model("zipf", 8, 1.0), ZipfianAccess)
        assert isinstance(make_access_model("uniform", 8), UniformAccess)
        with pytest.raises(ValueError):
            make_access_model("nope", 8)

    def test_zipf_prefers_low_ranks(self):
        bound = ZipfianAccess(16, 1.0).bind(RandomSource(4))
        counts = [0] * 16
        for _ in range(20000):
            counts[bound.select()] += 1
        assert counts[0] > counts[7] > counts[15]

    def test_uniform_roughly_even(self):
        bound = UniformAccess(4).bind(RandomSource(4))
        counts = [0] * 4
        n = 20000
        for _ in range(n):
            counts[bound.select()] += 1
        for count in counts:
            assert count / n == pytest.approx(0.25, abs=0.02)

    def test_weights_align_with_figure8(self):
        # Figure 8: with z=1 over 64 videos, rank 1 gets ~21% of accesses.
        weights = ZipfianAccess(64, 1.0).weights()
        assert weights[0] == pytest.approx(0.21, abs=0.01)
