"""Runtime edges: batch lifecycle guards, traces, and derived stats."""

import pytest

from repro.bufferpool.pool import HIT, MISS
from repro.sharing import SharingSpec
from repro.sharing.runtime import StreamBatch
from repro.sim.environment import Environment
from repro.telemetry.trace import TraceRecorder

from tests.sharing.test_batching import batch_config
from tests.sharing.test_merge_chain import FakePool, FakeTerminal


def runtime_with_trace():
    env = Environment()
    runtime = SharingSpec(policy="batch+chain").build(env)
    runtime.trace = TraceRecorder(env)
    return env, runtime


class TestBatchLifecycleGuards:
    def launched_batch(self, env):
        batch = StreamBatch(env, 0, None)
        batch.launched = True
        return batch

    def test_join_after_launch_rejected(self):
        batch = self.launched_batch(Environment())
        with pytest.raises(ValueError, match="after the batch launched"):
            batch.join()

    def test_withdraw_after_launch_rejected(self):
        batch = self.launched_batch(Environment())
        with pytest.raises(ValueError, match="after the batch launched"):
            batch.withdraw()

    def test_withdraw_never_leaves_the_batch_leaderless(self):
        batch = StreamBatch(Environment(), 0, None)
        with pytest.raises(ValueError, match="leaderless"):
            batch.withdraw()

    def test_depart_before_launch_rejected(self):
        batch = StreamBatch(Environment(), 0, None)
        with pytest.raises(ValueError, match="before the batch launched"):
            batch.depart()

    def test_depart_past_empty_rejected(self):
        batch = self.launched_batch(Environment())
        released = []
        batch._release = lambda: released.append(True)
        batch.depart()
        assert released == [True]  # last one out frees the slot
        with pytest.raises(ValueError, match="no live members"):
            batch.depart()

    def test_overflow_leader_opens_an_unregistered_batch(self):
        # A session granted its slot at the instant another leader
        # opened the title's window (an outage's shed ends) opens its
        # own batch, which accepts no joiners.
        env, runtime = runtime_with_trace()
        first = runtime.open_batch(0, None)
        second = runtime.open_batch(0, None)
        assert runtime._batches[0] is first
        assert runtime.joinable_batch(0) is first
        env.run(until=10.0)
        # Both still launch, and the registry is clean afterwards.
        assert first.launched and second.launched
        assert runtime.stats.batches_launched == 2
        assert 0 not in runtime._batches


class TestTraces:
    def test_batch_events_recorded(self):
        env, runtime = runtime_with_trace()
        batch = runtime.open_batch(0, None)
        batch.join()
        env.run(until=10.0)
        assert runtime.trace.counts["batch.open"] == 1
        assert runtime.trace.counts["batch.launch"] == 1

    def test_chain_events_recorded(self):
        env, runtime = runtime_with_trace()
        pred = FakeTerminal(1, frame=120, request=11)
        succ = FakeTerminal(2, frame=0, request=1)
        runtime.note_play_start(pred, 0)
        runtime.note_play_start(succ, 0)
        runtime.note_pause(pred)
        assert runtime.trace.counts["chain.form"] == 1
        assert runtime.trace.counts["chain.break"] == 1

    def test_node_hook_attaches_the_recorder(self):
        from repro import SpiffiSystem

        system = SpiffiSystem(batch_config())
        recorder = system.enable_tracing()
        assert system.sharing.trace is recorder
        system.start()
        system.env.run(until=40.0)
        assert recorder.counts["batch.launch"] > 0


class TestSeekAndStrays:
    def chained(self):
        env = Environment()
        runtime = SharingSpec(policy="batch+chain").build(env)
        pred = FakeTerminal(1, frame=120, request=11)
        succ = FakeTerminal(2, frame=0, request=1)
        runtime.note_play_start(pred, 0)
        runtime.note_play_start(succ, 0)
        return runtime, pred, succ

    def test_predecessor_seek_breaks(self):
        runtime, pred, succ = self.chained()
        runtime.note_seek(pred)
        assert runtime.stats.chain_breaks == 1

    def test_successor_seek_dissolves(self):
        runtime, pred, succ = self.chained()
        runtime.note_seek(succ)
        assert runtime.stats.chain_breaks == 0
        assert succ not in runtime._chains_by_succ

    def test_block_from_unknown_terminal_ignored(self):
        runtime, pred, succ = self.chained()
        runtime.note_block(99, 0, 5, HIT, "page", FakePool())
        assert runtime.stats.chain_reads == 0

    def test_block_for_another_title_ignored(self):
        runtime, pred, succ = self.chained()
        pool = FakePool()
        runtime.note_block(1, 7, 11, MISS, "page", pool)
        assert pool.pinned == []


class TestDerivedStats:
    def test_shared_streams_and_fraction(self):
        # RunMetrics is the one place the ratios are derived: every
        # batch follower is a shared stream, counted in the numerator
        # *and* the denominator.
        from repro import SpiffiSystem

        system = SpiffiSystem(
            batch_config(sharing=SharingSpec(policy="batch+chain", window_s=2.0))
        )
        metrics = system.run()
        stats = system.sharing.stats
        assert metrics.merged_sessions == 0
        assert metrics.batches_launched == stats.batches_launched > 0
        assert metrics.shared_streams == stats.batch_followers > 0
        assert metrics.sharing_fraction == metrics.shared_streams / (
            metrics.batches_launched + metrics.shared_streams
        )

    def test_reset_keeps_live_batches(self):
        env, runtime = runtime_with_trace()
        batch = runtime.open_batch(0, None)
        runtime.stats.batch_withdrawn = 3
        runtime.reset_stats()
        assert runtime.stats.batch_withdrawn == 0
        assert runtime.joinable_batch(0) is batch  # live state survives
