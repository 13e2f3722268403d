"""Stateful property test: the buffer pool under random operation mixes.

Drives random sequences of real reads, prefetches, and re-references
against both replacement policies, checking structural invariants the
simulator relies on after every step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.bufferpool import BufferPool, ReplacementSpec
from repro.sim import Environment

KEYS = [("v", block) for block in range(12)]
CAPACITY = 6


class BufferPoolMachine(RuleBasedStateMachine):
    @initialize(policy=st.sampled_from(["global_lru", "love_prefetch"]),
                share=st.sampled_from([0.5, 1.0]))
    def setup(self, policy, share):
        self.env = Environment()
        self.pool = BufferPool(
            self.env,
            CAPACITY,
            ReplacementSpec(policy).build(),
            prefetch_pool_share=share,
        )
        self.loaded_reads = 0

    def _drive(self, generator):
        """Run a pool generator to completion (no simulated waiting is
        possible here because every page is unpinned between rules)."""
        result = {}

        def proc(env):
            result["value"] = yield from generator
        process = self.env.process(proc(self.env))
        self.env.run(until=process)
        return result["value"]

    @rule(key=st.sampled_from(KEYS), terminal=st.integers(0, 3))
    def real_read(self, key, terminal):
        page, status = self._drive(
            self.pool.acquire(key, 1024, terminal_id=terminal)
        )
        assert status in ("hit", "inflight", "miss")
        if status == "miss":
            self.pool.finish_io(page)
            self.loaded_reads += 1
        assert not page.in_flight
        assert not page.is_prefetched  # referenced pages leave the chain
        self.pool.unpin(page)

    @rule(key=st.sampled_from(KEYS))
    def prefetch(self, key):
        page = self.pool.try_acquire_for_prefetch(key, 1024)
        if page is not None:
            assert page.is_prefetched
            self.pool.finish_io(page)
            self.pool.unpin(page)

    @invariant()
    def capacity_respected(self):
        if not hasattr(self, "pool"):
            return
        assert self.pool.resident_pages <= CAPACITY

    @invariant()
    def prefetched_counter_consistent(self):
        if not hasattr(self, "pool"):
            return
        actual = sum(1 for page in self.pool.pages.values() if page.is_prefetched)
        assert self.pool.prefetched_resident == actual

    @invariant()
    def all_pages_unpinned_between_rules(self):
        if not hasattr(self, "pool"):
            return
        assert all(page.pins == 0 for page in self.pool.pages.values())
        assert all(not page.in_flight for page in self.pool.pages.values())

    @invariant()
    def victim_is_always_evictable(self):
        if not hasattr(self, "pool"):
            return
        victim = self.pool.policy.victim()
        if victim is not None:
            assert victim.evictable
        restricted = self.pool.policy.victim(exclude_prefetched=True)
        if restricted is not None:
            assert restricted.evictable and not restricted.is_prefetched

    @invariant()
    def stats_add_up(self):
        if not hasattr(self, "pool"):
            return
        stats = self.pool.stats
        assert stats.references == stats.hits + stats.inflight_hits + stats.misses


TestBufferPoolStateful = BufferPoolMachine.TestCase
TestBufferPoolStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


class PinnedPoolMachine(RuleBasedStateMachine):
    """The pool with pins held across rules.

    Reads stay in flight and references stay pinned until a later rule
    releases them; chain-style ``pin``/``unpin``, merged in-flight joins
    and pre-loaded pages mix in.  Checks the pool's count of unpinned
    pages, which lets ``acquire`` skip the victim search, after every
    step.
    """

    @initialize(policy=st.sampled_from(["global_lru", "love_prefetch"]),
                share=st.sampled_from([0.5, 1.0]))
    def setup(self, policy, share):
        self.env = Environment()
        self.pool = BufferPool(
            self.env,
            CAPACITY,
            ReplacementSpec(policy).build(),
            prefetch_pool_share=share,
        )
        #: Pages whose read is in flight, each with its loader's pin.
        self.loading = []
        #: One entry per other pin held (references, joins, chain pins).
        self.held = []

    def _would_block(self, key):
        pool = self.pool
        return (
            key not in pool.pages
            and pool.resident_pages >= pool.capacity_pages
            and pool.policy.victim() is None
        )

    @rule(key=st.sampled_from(KEYS), terminal=st.integers(0, 3))
    def read(self, key, terminal):
        if self._would_block(key):
            return
        result = {}

        def proc(env):
            result["value"] = yield from self.pool.acquire(key, 1024, terminal_id=terminal)
        self.env.run(until=self.env.process(proc(self.env)))
        page, status = result["value"]
        (self.loading if status == "miss" else self.held).append(page)

    @rule(key=st.sampled_from(KEYS))
    def prefetch(self, key):
        page = self.pool.try_acquire_for_prefetch(key, 1024)
        if page is not None:
            self.loading.append(page)

    @rule(key=st.sampled_from(KEYS), prefetched=st.booleans())
    def insert_resident(self, key, prefetched):
        self.pool.insert_resident(key, 1024, prefetched=prefetched)

    @rule(data=st.data(), failed=st.booleans())
    def finish_read(self, data, failed):
        if not self.loading:
            return
        page = self.loading.pop(data.draw(st.integers(0, len(self.loading) - 1)))
        if failed:
            self.pool.discard_failed(page)
        else:
            self.pool.finish_io(page)
            self.held.append(page)

    @rule(data=st.data())
    def chain_pin(self, data):
        if not self.pool.pages:
            return
        keys = sorted(self.pool.pages)
        page = self.pool.pages[data.draw(st.sampled_from(keys))]
        self.pool.pin(page)
        self.held.append(page)

    @rule(data=st.data())
    def release(self, data):
        loaded = [i for i, page in enumerate(self.held) if not page.in_flight]
        if not loaded:
            return
        self.pool.unpin(self.held.pop(data.draw(st.sampled_from(loaded))))

    @invariant()
    def pins_conserved(self):
        if not hasattr(self, "pool"):
            return
        for page in self.loading + self.held:
            assert self.pool.pages.get(page.key) is page
        for page in self.pool.pages.values():
            assert page.pins == self.loading.count(page) + self.held.count(page)

    @invariant()
    def unpinned_count_exact(self):
        if not hasattr(self, "pool"):
            return
        pages = self.pool.pages.values()
        assert self.pool.unpinned_pages == sum(page.pins == 0 for page in pages)

    @invariant()
    def skip_never_hides_a_victim(self):
        if not hasattr(self, "pool"):
            return
        policy = self.pool.policy
        if policy.victim() is not None or policy.victim(exclude_prefetched=True) is not None:
            assert self.pool.unpinned_pages > 0


TestPinnedPoolStateful = PinnedPoolMachine.TestCase
TestPinnedPoolStateful.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)
