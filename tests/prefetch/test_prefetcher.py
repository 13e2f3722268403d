"""Tests for the per-disk prefetchers (standard, real-time, delayed)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufferpool import BufferPool, ReplacementSpec
from repro.cpu import CpuParameters, Processor
from repro.prefetch import DiskPrefetcher, PrefetchOrder, PrefetchSpec
from repro.sched import FcfsScheduler
from repro.sim import Environment, RandomSource
from repro.storage import DiskDrive, DiskGeometry, DriveParameters


def make_rig(env, spec, pool_capacity=16):
    params = DriveParameters()
    geometry = DiskGeometry(params.cylinder_bytes, 100 * params.cylinder_bytes)
    drive = DiskDrive(env, 0, params, geometry, FcfsScheduler(), RandomSource(1))
    pool = BufferPool(
        env, pool_capacity, ReplacementSpec("love_prefetch").build()
    )
    cpu_params = CpuParameters()
    cpu = Processor(env, cpu_params, 0)
    prefetcher = DiskPrefetcher(env, spec, drive, pool, cpu, cpu_params)
    return prefetcher, pool, drive


def order(block, deadline=math.inf, size=1024):
    """Arguments of one ``DiskPrefetcher.schedule`` call."""
    return ("v", block), block * 512 * 1024, deadline, lambda _block: size


class TestSpec:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            PrefetchSpec("psychic")
        with pytest.raises(ValueError):
            PrefetchSpec("standard", processes_per_disk=0)
        with pytest.raises(ValueError):
            PrefetchSpec("delayed", max_advance_s=0)
        with pytest.raises(ValueError):
            PrefetchSpec("standard", depth=0)
        with pytest.raises(ValueError):
            PrefetchSpec("standard", pool_share=0)

    def test_uses_deadlines(self):
        assert PrefetchSpec("realtime").uses_deadlines
        assert PrefetchSpec("delayed").uses_deadlines
        assert not PrefetchSpec("standard").uses_deadlines

    def test_labels(self):
        assert "8" in PrefetchSpec("delayed", max_advance_s=8.0).label()
        assert "real-time" in PrefetchSpec("realtime").label()


class TestStandardPrefetch:
    def test_fetch_lands_in_pool(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(env, PrefetchSpec("standard"))
        assert prefetcher.schedule(*order(0)) is True
        env.run(until=5.0)
        page = pool.lookup(("v", 0))
        assert page is not None
        assert not page.in_flight
        assert page.is_prefetched
        assert drive.reads == 1
        assert prefetcher.stats.completed == 1

    def test_duplicate_key_deduplicated(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(env, PrefetchSpec("standard"))
        assert prefetcher.schedule(*order(0)) is True
        assert prefetcher.schedule(*order(0)) is False
        assert prefetcher.stats.deduplicated == 1

    def test_resident_key_skipped(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(env, PrefetchSpec("standard"))
        prefetcher.schedule(*order(0))
        env.run(until=5.0)
        assert prefetcher.schedule(*order(0)) is False
        assert prefetcher.stats.already_resident == 1

    def test_order_built_only_after_the_checks(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(
            env, PrefetchSpec("standard", processes_per_disk=1)
        )
        sized = []

        def size_of(block):
            sized.append(block)
            return 4096

        offset = 3 * drive.params.cylinder_bytes + 10
        assert prefetcher.schedule(("v", 7), offset, math.inf, size_of) is True
        assert prefetcher.schedule(("v", 7), offset, math.inf, size_of) is False
        # The duplicate was dropped before it was sized.
        assert sized == [7]
        (queued,) = prefetcher._queue.items
        assert type(queued) is PrefetchOrder
        assert queued == (math.inf, queued.seq, ("v", 7), offset, 4096)
        # The cylinder is where the offset lies, computed at issue.
        submitted = []
        submit = drive.submit
        drive.submit = lambda request: submitted.append(request) or submit(request)
        env.run(until=5.0)
        (request,) = submitted
        assert (request.byte_offset, request.size, request.cylinder) == (offset, 4096, 3)

    def test_disabled_mode_schedules_nothing(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(env, PrefetchSpec("none"))
        assert prefetcher.schedule(*order(0)) is False
        env.run(until=5.0)
        assert drive.reads == 0

    def test_fifo_service_order(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(
            env, PrefetchSpec("standard", processes_per_disk=1)
        )
        for block in (3, 1, 2):
            prefetcher.schedule(*order(block))
        env.run(until=10.0)
        # completed in FIFO order: block 3's page loaded first.
        assert prefetcher.stats.completed == 3


class TestRealtimePrefetch:
    def test_deadline_order_served_first(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(
            env, PrefetchSpec("realtime", processes_per_disk=1)
        )
        prefetcher.schedule(*order(1, deadline=50.0))
        prefetcher.schedule(*order(2, deadline=5.0))

        completions = []
        original = pool.finish_io

        def spy(page):
            completions.append(page.key)
            original(page)

        pool.finish_io = spy
        env.run(until=10.0)
        assert completions[0] == ("v", 2)


class TestDelayedPrefetch:
    def test_held_until_max_advance(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(
            env, PrefetchSpec("delayed", max_advance_s=8.0)
        )
        prefetcher.schedule(*order(0, deadline=20.0))
        env.run(until=11.0)
        # Issue time = deadline - 8 = 12s; nothing read yet at t=11.
        assert drive.reads == 0
        env.run(until=20.0)
        assert drive.reads == 1
        assert pool.lookup(("v", 0)) is not None

    def test_more_urgent_arrival_swaps_ahead(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(
            env, PrefetchSpec("delayed", max_advance_s=2.0, processes_per_disk=1)
        )
        prefetcher.schedule(*order(0, deadline=100.0))

        def later(env):
            yield env.timeout(10.0)
            prefetcher.schedule(*order(1, deadline=20.0))

        env.process(later(env))
        env.run(until=30.0)
        page = pool.lookup(("v", 1))
        assert page is not None and not page.in_flight
        assert pool.lookup(("v", 0)) is None  # still held back

    def test_queue_depth_visible(self):
        env = Environment()
        prefetcher, pool, drive = make_rig(env, PrefetchSpec("standard"))
        prefetcher.schedule(*order(0))
        assert prefetcher.queue_depth >= 0  # drained asynchronously


def issue_order(prefetcher, pool):
    """Record the key of every prefetch a worker issues, in order."""
    issued = []
    acquire = pool.try_acquire_for_prefetch

    def recording(key, size):
        issued.append(key)
        return acquire(key, size)

    pool.try_acquire_for_prefetch = recording
    return issued


class TestPopOrder:
    """Workers pop orders in ``(deadline, seq)`` order: deadline first,
    then first come, first served; FIFO mode in arrival order alone."""

    @given(
        mode=st.sampled_from(["standard", "realtime", "delayed"]),
        deadlines=st.lists(st.sampled_from([3.0, 5.0, 5.0, 9.0, math.inf]), max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_worker_pops_in_deadline_then_arrival_order(self, mode, deadlines):
        env = Environment()
        prefetcher, pool, drive = make_rig(
            env,
            PrefetchSpec(mode, processes_per_disk=1, max_advance_s=1.0),
            pool_capacity=len(deadlines) + 1,
        )
        issued = issue_order(prefetcher, pool)
        for block, deadline in enumerate(deadlines):
            assert prefetcher.schedule(*order(block, deadline=deadline))
        env.run(until=60.0)
        arrivals = list(enumerate(deadlines))
        if mode != "standard":
            arrivals.sort(key=lambda arrival: (arrival[1], arrival[0]))
        assert issued == [("v", block) for block, _deadline in arrivals]

    def test_held_order_requeues_behind_equal_deadlines(self):
        """The delayed worker swaps its held order for a more urgent
        arrival; the held order goes back with a fresh seq, behind an
        order of the same deadline that arrived while it was held."""
        env = Environment()
        prefetcher, pool, drive = make_rig(
            env, PrefetchSpec("delayed", max_advance_s=2.0, processes_per_disk=1)
        )
        issued = issue_order(prefetcher, pool)
        prefetcher.schedule(*order(0, deadline=100.0))

        def later(env):
            yield env.timeout(10.0)
            prefetcher.schedule(*order(1, deadline=100.0))
            prefetcher.schedule(*order(2, deadline=20.0))

        env.process(later(env))
        env.run(until=120.0)
        assert issued == [("v", 2), ("v", 1), ("v", 0)]
