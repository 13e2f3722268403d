"""Buffer chaining, driven at the runtime level.

These tests feed the :class:`SharingRuntime` hand-built terminals and
pools so every lifecycle edge is exercised deterministically: the lag
bound, chain formation, pinned-page accounting, and every
break/dissolve path.  One integration test runs batching and chaining
together end-to-end through the simulator.
"""

import types

from repro.bufferpool.pool import HIT, MISS
from repro.sharing import SharingSpec
from repro.sim.environment import Environment

from tests.sharing.test_batching import batch_config, run_whole

FPS = 24.0


class FakeTerminal:
    """Just enough of a Terminal for the sharing runtime."""

    def __init__(self, terminal_id, frame=0, request=0):
        self.terminal_id = terminal_id
        self._epoch = 0
        self._next_frame = frame
        self._next_request = request
        self._video = types.SimpleNamespace(video_id=0, fps=FPS)


class FakePool:
    """Counts pins so release paths can be checked exactly."""

    def __init__(self):
        self.pinned = []

    def pin(self, page):
        self.pinned.append(page)

    def unpin(self, page):
        self.pinned.remove(page)


def chain_runtime(env, **overrides):
    overrides.setdefault("chain_pin_limit_blocks", 4)
    spec = SharingSpec(policy="batch+chain", **overrides)
    return spec.build(env)


class TestBufferChain:
    def started(self, env=None, lag_frames=120):
        env = env or Environment()
        runtime = chain_runtime(env)
        pred = FakeTerminal(1, frame=lag_frames, request=11)
        succ = FakeTerminal(2, frame=0, request=1)
        runtime.note_play_start(pred, 0)
        runtime.note_play_start(succ, 0)
        return runtime, pred, succ

    def test_chain_forms_within_the_lag_bound(self):
        runtime, pred, succ = self.started()
        assert runtime.stats.chains_formed == 1

    def test_no_chain_beyond_the_lag_bound(self):
        env = Environment()
        runtime = chain_runtime(env, chain_max_lag_s=2.0)
        pred = FakeTerminal(1, frame=int(3.0 * FPS), request=11)
        succ = FakeTerminal(2, frame=0, request=1)
        runtime.note_play_start(pred, 0)
        runtime.note_play_start(succ, 0)
        assert runtime.stats.chains_formed == 0

    def test_predecessor_pages_pin_up_to_the_limit(self):
        runtime, pred, succ = self.started()
        pool = FakePool()
        for block in range(11, 17):  # limit is 4: two stay unpinned
            runtime.note_block(1, 0, block, MISS, f"page-{block}", pool)
        assert len(pool.pinned) == 4

    def test_successor_reads_count_and_release_pins(self):
        runtime, pred, succ = self.started()
        pool = FakePool()
        runtime.note_block(1, 0, 11, MISS, "page-11", pool)
        assert pool.pinned == ["page-11"]
        runtime.note_block(2, 0, 11, HIT, "page-11", pool)
        assert runtime.stats.chain_reads == 1
        assert pool.pinned == []
        # Reads the predecessor never fetched don't count.
        runtime.note_block(2, 0, 99, HIT, "page-99", pool)
        assert runtime.stats.chain_reads == 1

    def test_missed_bridge_block_breaks_the_chain(self):
        runtime, pred, succ = self.started()
        pool = FakePool()
        runtime.note_block(1, 0, 11, MISS, "page-11", pool)
        # The predecessor had fetched block 5 (frontier 10) but the
        # successor MISSes it: the page was evicted, bridge collapsed.
        runtime.note_block(2, 0, 5, MISS, "page-5", pool)
        assert runtime.stats.chain_breaks == 1
        assert runtime.stats.chain_reads == 0
        assert pool.pinned == []  # pins released on break

    def test_predecessor_pause_breaks_and_releases(self):
        runtime, pred, succ = self.started()
        pool = FakePool()
        runtime.note_block(1, 0, 11, MISS, "page-11", pool)
        runtime.note_pause(pred)
        assert runtime.stats.chain_breaks == 1
        assert pool.pinned == []
        # Broken is broken: later blocks pin nothing.
        runtime.note_block(1, 0, 12, MISS, "page-12", pool)
        assert pool.pinned == []

    def test_predecessor_abandon_breaks_the_chain(self):
        runtime, pred, succ = self.started()
        runtime.note_abandon(pred)
        assert runtime.stats.chain_breaks == 1

    def test_successor_abandon_dissolves_without_a_break(self):
        runtime, pred, succ = self.started()
        pool = FakePool()
        runtime.note_block(1, 0, 11, MISS, "page-11", pool)
        runtime.note_abandon(succ)
        assert runtime.stats.chain_breaks == 0
        assert pool.pinned == []

    def test_completed_successor_dissolves_without_a_break(self):
        runtime, pred, succ = self.started()
        pool = FakePool()
        runtime.note_block(1, 0, 11, MISS, "page-11", pool)
        runtime.note_play_end(succ, 0)
        assert runtime.stats.chain_breaks == 0
        assert pool.pinned == []

    def test_completed_predecessor_dissolves_without_a_break(self):
        runtime, pred, succ = self.started()
        runtime.note_play_end(pred, 0)
        assert runtime.stats.chain_breaks == 0
        # The successor is free to chain again behind someone else.
        late = FakeTerminal(3, frame=240, request=21)
        runtime.note_play_start(late, 0)
        runtime.note_play_start(succ, 0)
        assert runtime.stats.chains_formed == 2


class TestFullPolicyIntegration:
    def test_batching_and_chaining_engage(self):
        system = run_whole(
            batch_config(sharing=SharingSpec(policy="batch+chain", window_s=2.0)),
            until=60.0,
        )
        stats = system.sharing.stats
        assert stats.batches_launched > 0
        assert stats.batch_followers > 0
        assert stats.chains_formed > 0
        assert stats.chain_reads > 0
