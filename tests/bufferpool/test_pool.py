"""Tests for the buffer pool: hits, misses, merging, eviction, waits."""

import pytest

from repro.bufferpool import HIT, INFLIGHT, MISS, BufferPool, ReplacementSpec
from repro.sim import Environment


def make_pool(env, capacity=4, policy="love_prefetch", share=1.0):
    return BufferPool(
        env, capacity, ReplacementSpec(policy).build(), prefetch_pool_share=share
    )


def acquire_now(env, pool, key, size=1024, terminal_id=None, for_prefetch=False):
    """Run an acquire that must complete without waiting."""
    result = []

    def proc(env):
        outcome = yield from pool.acquire(key, size, terminal_id, for_prefetch)
        result.append(outcome)

    env.process(proc(env))
    env.run()
    assert result, "acquire blocked unexpectedly"
    return result[0]


class TestAcquire:
    def test_miss_then_hit(self):
        env = Environment()
        pool = make_pool(env)
        page, status = acquire_now(env, pool, ("v", 0), terminal_id=1)
        assert status == MISS
        pool.finish_io(page)
        pool.unpin(page)
        page2, status2 = acquire_now(env, pool, ("v", 0), terminal_id=1)
        assert status2 == HIT
        assert page2 is page
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_inflight_merge(self):
        env = Environment()
        pool = make_pool(env)
        page, status = acquire_now(env, pool, ("v", 0), terminal_id=1)
        assert status == MISS
        page2, status2 = acquire_now(env, pool, ("v", 0), terminal_id=2)
        assert status2 == INFLIGHT
        assert page2 is page
        assert page.pins == 2
        assert pool.stats.inflight_hits == 1

    def test_rereference_counting(self):
        env = Environment()
        pool = make_pool(env)
        page, _ = acquire_now(env, pool, ("v", 0), terminal_id=1)
        pool.finish_io(page)
        pool.unpin(page)
        acquire_now(env, pool, ("v", 0), terminal_id=1)
        assert pool.stats.rereferences == 0  # same terminal
        acquire_now(env, pool, ("v", 0), terminal_id=2)
        assert pool.stats.rereferences == 1  # different terminal

    def test_rereference_after_another_terminal(self):
        env = Environment()
        pool = make_pool(env)
        page = pool.try_acquire_for_prefetch(("v", 0), 1024)
        pool.finish_io(page)
        pool.unpin(page)
        for terminal in (3, 3):  # first references come from a prefetch
            page, _ = acquire_now(env, pool, ("v", 0), terminal_id=terminal)
            pool.unpin(page)
        assert pool.stats.rereferences == 0
        for terminal in (4, 3, 3):  # once shared, every reference counts
            page, _ = acquire_now(env, pool, ("v", 0), terminal_id=terminal)
            pool.unpin(page)
        assert pool.stats.rereferences == 3

    def test_eviction_when_full(self):
        env = Environment()
        pool = make_pool(env, capacity=2)
        pages = []
        for block in range(2):
            page, _ = acquire_now(env, pool, ("v", block), terminal_id=1)
            pool.finish_io(page)
            pool.unpin(page)
            pages.append(page)
        page3, status = acquire_now(env, pool, ("v", 2), terminal_id=1)
        assert status == MISS
        assert pool.resident_pages == 2
        assert pool.lookup(("v", 0)) is None  # LRU victim evicted
        assert pool.stats.evictions == 1

    def test_blocks_when_all_pinned_then_resumes(self):
        env = Environment()
        pool = make_pool(env, capacity=1)
        page, _ = acquire_now(env, pool, ("v", 0), terminal_id=1)
        pool.finish_io(page)  # loaded but still pinned

        outcome = []

        def blocked(env):
            result = yield from pool.acquire(("v", 1), 1024, 2, False)
            outcome.append((env.now, result[1]))

        def releaser(env):
            yield env.timeout(5)
            pool.unpin(page)

        env.process(blocked(env))
        env.process(releaser(env))
        env.run()
        assert outcome == [(5.0, MISS)]
        assert pool.stats.allocation_waits >= 1

    def test_waiter_joins_page_created_meanwhile(self):
        env = Environment()
        pool = make_pool(env, capacity=1)
        holder, _ = acquire_now(env, pool, ("v", 0), terminal_id=1)
        pool.finish_io(holder)  # pinned: pool full

        outcomes = {}

        def late_same_key(env):
            result = yield from pool.acquire(("v", 0), 1024, 2, False)
            outcomes["late"] = result[1]

        def releaser(env):
            yield env.timeout(3)
            pool.unpin(holder)

        # The late acquirer wants a key that is ALREADY resident — it
        # must join immediately rather than wait for a frame.
        env.process(late_same_key(env))
        env.process(releaser(env))
        env.run()
        assert outcomes["late"] == HIT

    def test_wasted_prefetch_counted(self):
        env = Environment()
        pool = make_pool(env, capacity=1)
        page = pool.try_acquire_for_prefetch(("v", 0), 1024)
        pool.finish_io(page)
        pool.unpin(page)
        # A real request for a different block evicts the unused
        # prefetched page.
        acquire_now(env, pool, ("v", 1), terminal_id=1)
        assert pool.stats.wasted_prefetches == 1

    def test_unpin_below_zero_rejected(self):
        env = Environment()
        pool = make_pool(env)
        page, _ = acquire_now(env, pool, ("v", 0), terminal_id=1)
        pool.unpin(page)
        with pytest.raises(ValueError):
            pool.unpin(page)

    def test_unpin_of_foreign_page_rejected(self):
        env = Environment()
        pool, other = make_pool(env), make_pool(env)
        page, _ = acquire_now(env, other, ("v", 0), terminal_id=1)
        acquire_now(env, pool, ("v", 0), terminal_id=1)
        with pytest.raises(ValueError, match="unpin of page not in this pool"):
            pool.unpin(page)
        assert page.pins == 1
        assert pool.unpinned_pages == 0

    def test_unpin_of_evicted_page_rejected(self):
        env = Environment()
        pool = make_pool(env, capacity=1)
        page, _ = acquire_now(env, pool, ("v", 0), terminal_id=1)
        pool.finish_io(page)
        pool.unpin(page)
        acquire_now(env, pool, ("v", 1), terminal_id=1)  # evicts ("v", 0)
        assert pool.lookup(("v", 0)) is None
        with pytest.raises(ValueError, match="unpin of page not in this pool"):
            pool.unpin(page)
        assert pool.unpinned_pages == 0

    @pytest.mark.parametrize("policy", ["global_lru", "love_prefetch"])
    def test_no_victim_search_while_every_page_is_pinned(self, policy):
        env = Environment()
        pool = make_pool(env, capacity=2, policy=policy)
        calls = []
        search = pool.policy.victim
        pool.policy.victim = lambda **kw: calls.append(kw) or search(**kw)
        holders = [acquire_now(env, pool, ("v", b), terminal_id=1)[0] for b in range(2)]
        for page in holders:
            pool.finish_io(page)
        assert pool.unpinned_pages == 0
        assert pool.try_acquire_for_prefetch(("v", 2), 1024) is None

        def blocked(env):
            yield from pool.acquire(("v", 3), 1024, 2, False)

        env.process(blocked(env))
        env.run()
        assert pool.stats.allocation_waits == 1
        assert calls == []
        pool.unpin(holders[0])  # a frame frees: the waiter now searches
        env.run()
        assert calls == [{}]
        assert pool.lookup(("v", 3)) is not None


class TestPrefetchAllocation:
    def test_resident_key_skipped(self):
        env = Environment()
        pool = make_pool(env)
        acquire_now(env, pool, ("v", 0), terminal_id=1)
        assert pool.try_acquire_for_prefetch(("v", 0), 1024) is None

    def test_pool_share_cap_drops(self):
        env = Environment()
        pool = make_pool(env, capacity=4, share=0.5)
        assert pool.prefetch_cap_pages == 2
        assert pool.try_acquire_for_prefetch(("v", 0), 1024) is not None
        assert pool.try_acquire_for_prefetch(("v", 1), 1024) is not None
        assert pool.try_acquire_for_prefetch(("v", 2), 1024) is None
        assert pool.stats.dropped_prefetches == 1

    def test_reference_frees_cap_headroom(self):
        env = Environment()
        pool = make_pool(env, capacity=4, share=0.5)
        page = pool.try_acquire_for_prefetch(("v", 0), 1024)
        pool.try_acquire_for_prefetch(("v", 1), 1024)
        pool.finish_io(page)
        pool.unpin(page)
        acquire_now(env, pool, ("v", 0), terminal_id=1)  # reference it
        assert pool.prefetched_resident == 1
        assert pool.try_acquire_for_prefetch(("v", 2), 1024) is not None

    def test_constrained_prefetch_never_evicts_prefetched(self):
        env = Environment()
        pool = make_pool(env, capacity=4, share=0.75, policy="love_prefetch")
        assert pool.prefetch_cap_pages == 3
        for block in range(2):
            page = pool.try_acquire_for_prefetch(("v", block), 1024)
            pool.finish_io(page)
            pool.unpin(page)
        # Two real pages keep the pool full and pinned.
        acquire_now(env, pool, ("r", 0), terminal_id=1)
        acquire_now(env, pool, ("r", 1), terminal_id=1)
        assert pool.resident_pages == 4
        # Under the cap (2 < 3) but the only evictable pages are
        # prefetched: a constrained prefetch must drop, not cannibalise.
        assert pool.try_acquire_for_prefetch(("v", 9), 1024) is None
        assert pool.stats.dropped_prefetches == 1
        assert pool.stats.wasted_prefetches == 0

    def test_unconstrained_prefetch_cannibalises(self):
        env = Environment()
        pool = make_pool(env, capacity=2, share=1.0, policy="global_lru")
        for block in range(2):
            page = pool.try_acquire_for_prefetch(("v", block), 1024)
            pool.finish_io(page)
            pool.unpin(page)
        third = pool.try_acquire_for_prefetch(("v", 2), 1024)
        assert third is not None
        assert pool.stats.wasted_prefetches == 1

    def test_pinned_pool_drops_prefetch(self):
        env = Environment()
        pool = make_pool(env, capacity=1, share=1.0)
        acquire_now(env, pool, ("v", 0), terminal_id=1)  # pinned, in flight
        assert pool.try_acquire_for_prefetch(("v", 1), 1024) is None


class TestValidation:
    def test_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            make_pool(env, capacity=0)

    def test_share_range(self):
        env = Environment()
        with pytest.raises(ValueError):
            make_pool(env, share=0.0)
        with pytest.raises(ValueError):
            make_pool(env, share=1.5)
