"""Piggybacking same-title starts (§8.2) through the ``batch`` policy.

Closed terminals call :meth:`SharingRuntime.request_start`: the first
start of a title opens a launch window, starts inside it join, and
every member launches together.  Batch counters are taken at launch.
"""

import pytest

from repro import SpiffiConfig, SpiffiSystem
from repro.sharing import SharingSpec
from repro.sim import Environment


def runtime(env, window_s):
    return SharingSpec(policy="batch", window_s=window_s).build(env)


def starter(env, sharing, delay, tag, launched, video_id=0):
    yield env.timeout(delay)
    yield sharing.request_start(video_id)
    launched.append((tag, env.now))


class TestPiggyback:
    def test_disabled_returns_none(self):
        # A policy that does not batch starts every terminal at once.
        config = SpiffiConfig(
            nodes=1,
            disks_per_node=1,
            videos_per_disk=1,
            video_length_s=10.0,
            terminals=2,
            sharing=SharingSpec(),
        )
        system = SpiffiSystem(config)
        assert system.request_start(0) is None

    def test_batch_launches_after_window(self):
        env = Environment()
        sharing = runtime(env, 10.0)
        launched = []
        env.process(starter(env, sharing, 0.0, "first", launched))
        env.process(starter(env, sharing, 4.0, "second", launched))
        env.run(until=9.0)
        # Nothing is counted before the launch instant.
        assert launched == []
        assert sharing.stats.batches_launched == 0
        env.run()
        # Both launch together, 10s after the batch opened.
        assert launched == [("first", 10.0), ("second", 10.0)]
        assert sharing.stats.batches_launched == 1
        assert sharing.stats.batch_followers == 1

    def test_late_requester_opens_new_batch(self):
        env = Environment()
        sharing = runtime(env, 5.0)
        launched = []
        env.process(starter(env, sharing, 0.0, "a", launched))
        env.process(starter(env, sharing, 7.0, "b", launched))  # after a launched
        env.run()
        assert launched == [("a", 5.0), ("b", 12.0)]
        assert sharing.stats.batches_launched == 2
        assert sharing.stats.batch_followers == 0

    def test_different_videos_different_batches(self):
        env = Environment()
        sharing = runtime(env, 5.0)
        assert sharing.request_start(0) is not sharing.request_start(1)
        env.run()
        assert sharing.stats.batches_launched == 2
        assert sharing.stats.batch_followers == 0

    def test_sharing_fraction(self):
        env = Environment()
        sharing = runtime(env, 5.0)
        launches = {sharing.request_start(0) for _ in range(3)}
        assert len(launches) == 1  # one batch, three members
        env.run()
        stats = sharing.stats
        shared = stats.batch_followers / (
            stats.batches_launched + stats.batch_followers
        )
        assert shared == pytest.approx(2 / 3)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window_s"):
            SharingSpec(policy="batch", window_s=-1.0)
