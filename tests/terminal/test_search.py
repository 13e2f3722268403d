"""Tests for visual search (§8.1): skim search and version search."""

import pytest

from repro import MB, SpiffiConfig
from repro.core.system import SpiffiSystem
from repro.terminal import SkimParameters, skim_search, version_search


def make_system(search_speedup=None):
    config = SpiffiConfig(
        nodes=1,
        disks_per_node=2,
        terminals=1,
        videos_per_disk=1,
        video_length_s=120.0,
        server_memory_bytes=64 * MB,
        start_spread_s=0.1,
        warmup_grace_s=0.1,
        measure_s=1.0,
        initial_position_fraction=0.0,
        search_version_speedup=search_speedup,
        seed=13,
    )
    return SpiffiSystem(config)


class TestSkimParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            SkimParameters(show_s=0)
        with pytest.raises(ValueError):
            SkimParameters(skip_s=-1)


class TestSkimSearch:
    def run_skim(self, direction, start_fraction=0.5, duration=6.0):
        system = make_system()
        env = system.env
        terminal = system.terminals[0]
        video = system.library[0]
        outcome = {}

        def driver(env):
            start = int(video.frame_count * start_fraction)
            session = env.process(terminal.play(0, start_frame=start))
            yield env.timeout(3.0)
            final = yield env.process(
                skim_search(terminal, direction, duration,
                            SkimParameters(show_s=0.5, skip_s=4.0))
            )
            outcome["final"] = final
            outcome["start"] = start
            # End the original session cleanly.
            if session.is_alive:
                terminal._epoch += 1
                yield session

        done = env.process(driver(env))
        env.run(until=done)
        return outcome, terminal, video

    def test_forward_moves_forward(self):
        outcome, terminal, video = self.run_skim(+1)
        assert outcome["final"] > outcome["start"]

    def test_rewind_moves_backward(self):
        outcome, terminal, video = self.run_skim(-1)
        assert outcome["final"] < outcome["start"]

    def test_covers_more_content_than_realtime(self):
        """6 seconds of skimming at show 0.5 / skip 4.0 covers ~9x more
        video than 6 seconds of normal viewing."""
        outcome, terminal, video = self.run_skim(+1, duration=6.0)
        moved_s = (outcome["final"] - outcome["start"]) / video.fps
        assert moved_s > 12.0

    def test_direction_validation(self):
        system = make_system()
        terminal = system.terminals[0]
        with pytest.raises(ValueError):
            list(skim_search(terminal, 0, 5.0))
        with pytest.raises(ValueError):
            list(skim_search(terminal, +1, -1.0))


class TestVersionSearch:
    def test_library_stores_condensed_copies(self):
        system = make_system(search_speedup=10)
        library = system.library
        assert library.has_search_versions
        assert library.title_count == 2
        assert len(library) == 4  # 2 titles + 2 search copies
        copy = library[library.search_version_of(0)]
        assert copy.duration_s == pytest.approx(12.0, abs=0.5)

    def test_search_copies_consume_disk_space(self):
        with_copies = make_system(search_speedup=10)
        without = make_system()
        used_with = sum(
            with_copies.layout.disk_used_bytes(d) for d in range(2)
        )
        used_without = sum(without.layout.disk_used_bytes(d) for d in range(2))
        assert used_with > used_without

    def test_forward_search_advances_position(self):
        system = make_system(search_speedup=10)
        env = system.env
        terminal = system.terminals[0]
        video = system.library[0]
        outcome = {}

        def driver(env):
            start = video.frame_count // 4
            session = env.process(terminal.play(0, start_frame=start))
            yield env.timeout(2.0)
            final = yield env.process(
                version_search(terminal, 0, +1, duration_s=3.0)
            )
            outcome["final"] = final
            outcome["start"] = start
            if session.is_alive:
                terminal._epoch += 1
                yield session

        done = env.process(driver(env))
        env.run(until=done)
        assert outcome["final"] > outcome["start"]
        # 3 s at 10x speedup ≈ 30 s of content ≈ 900 frames.
        moved = outcome["final"] - outcome["start"]
        assert 300 <= moved <= 1400

    def test_requires_search_versions(self):
        system = make_system()  # no copies stored
        terminal = system.terminals[0]
        with pytest.raises(ValueError):
            list(version_search(terminal, 0, +1, 5.0))

    def test_speedup_validation(self):
        from repro.media import VideoLibrary

        with pytest.raises(ValueError):
            VideoLibrary(2, 60.0, 64 * 1024, seed=1, search_speedup=1)

    def test_search_version_of_bounds(self):
        system = make_system(search_speedup=10)
        with pytest.raises(ValueError):
            system.library.search_version_of(5)
