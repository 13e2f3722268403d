"""Tests for the video terminal against a controllable fake server."""

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import StripedLayout
from repro.media import VideoLibrary
from repro.netsim import NetworkBus, NetworkParameters
from repro.sim import Environment, RandomSource
from repro.terminal import PauseModel, Terminal

BLOCK = 64 * 1024


class FakeNode:
    """A server stand-in with a fixed per-block service time."""

    def __init__(self, env, service_time=0.001, stall_blocks=None, stall_for=0.0):
        self.env = env
        self.service_time = service_time
        self.stall_blocks = stall_blocks or set()
        self.stall_for = stall_for
        self.requests = []  # (time, block, deadline)

    def request_block(self, terminal_id, video_id, block, size, placement, deadline):
        self.requests.append((self.env.now, block, deadline))
        done = self.env.event()

        def serve(env):
            delay = self.service_time
            if block in self.stall_blocks:
                delay += self.stall_for
            yield env.timeout(delay)
            done.succeed(env.now)

        self.env.process(serve(self.env))
        return done


class FakeFabric:
    def __init__(self, env, duration_s=4.0, service_time=0.001, **node_kwargs):
        self.library = VideoLibrary(1, duration_s, BLOCK, seed=7)
        self.block_size = BLOCK
        counts = [video.sequence.block_count(BLOCK) for video in self.library]
        self.layout = StripedLayout(counts, 1, 1, BLOCK)
        self.bus = NetworkBus(env, NetworkParameters())
        self.control_message_bytes = 128
        self._node = FakeNode(env, service_time, **node_kwargs)

    def node(self, index):
        return self._node

    def request_start(self, video_id):
        return None


def make_terminal(env, fabric, slots=4, pause_model=None):
    class FixedAccess:
        def select(self):
            return 0

    return Terminal(
        env=env,
        terminal_id=0,
        fabric=fabric,
        access=FixedAccess(),
        rng=RandomSource(3),
        memory_bytes=slots * BLOCK,
        pause_model=pause_model,
    )


def play_once(env, terminal, video_id=0, start_frame=0):
    done = env.process(terminal.play(video_id, start_frame))
    env.run(until=done)
    return terminal


class TestSmoothPlayback:
    def test_completes_without_glitches(self):
        env = Environment()
        fabric = FakeFabric(env)
        terminal = play_once(env, make_terminal(env, fabric))
        assert terminal.stats.glitches == 0
        assert terminal.stats.videos_completed == 1
        video = fabric.library[0]
        assert terminal.stats.blocks_received == video.sequence.block_count(BLOCK)

    def test_duration_close_to_video_length(self):
        env = Environment()
        fabric = FakeFabric(env, duration_s=4.0)
        terminal = make_terminal(env, fabric)
        done = env.process(terminal.play(0))
        env.run(until=done)
        # Priming is fast; total ≈ video duration.
        assert env.now == pytest.approx(4.0, abs=0.5)

    def test_startup_latency_recorded(self):
        env = Environment()
        fabric = FakeFabric(env)
        terminal = play_once(env, make_terminal(env, fabric))
        assert terminal.stats.startup_latency.count == 1
        assert terminal.stats.startup_latency.mean > 0

    def test_outstanding_never_exceeds_slots(self):
        env = Environment()
        fabric = FakeFabric(env, service_time=0.05)
        terminal = make_terminal(env, fabric, slots=4)
        done = env.process(terminal.play(0))
        env.run(until=done)
        # The fake node saw at most 4 concurrent outstanding requests:
        # request k+4 must come after request k's completion window.
        times = [t for t, _, _ in fabric._node.requests]
        blocks = [b for _, b, _ in fabric._node.requests]
        assert blocks == sorted(blocks)

    def test_mid_video_start(self):
        env = Environment()
        fabric = FakeFabric(env, duration_s=4.0)
        terminal = make_terminal(env, fabric)
        video = fabric.library[0]
        half = video.frame_count // 2
        done = env.process(terminal.play(0, start_frame=half))
        env.run(until=done)
        assert terminal.stats.glitches == 0
        assert env.now == pytest.approx(2.0, abs=0.5)
        # Only the second half's blocks were requested.
        first_block = min(b for _, b, _ in fabric._node.requests)
        expected = int(video.sequence.offsets()[half]) // BLOCK
        assert first_block == expected


class TestDeadlines:
    def test_deadlines_nondecreasing_in_block_order(self):
        env = Environment()
        fabric = FakeFabric(env)
        play_once(env, make_terminal(env, fabric))
        by_block = sorted(fabric._node.requests, key=lambda r: r[1])
        deadlines = [d for _, _, d in by_block]
        assert all(a <= b + 1e-9 for a, b in zip(deadlines, deadlines[1:]))

    def test_deadline_matches_display_time_of_first_frame(self):
        env = Environment()
        fabric = FakeFabric(env)
        terminal = make_terminal(env, fabric)
        done = env.process(terminal.play(0))
        env.run(until=done)
        video = fabric.library[0]
        schedule = video.schedule(BLOCK)
        # For a steady-state request (block issued while playing), the
        # deadline is anchor + first_frame/fps; check consistency.
        late_requests = [
            (t, b, d) for t, b, d in fabric._node.requests if b >= terminal.slots
        ]
        t, block, deadline = late_requests[-1]
        first_frame = int(schedule.first_frame[block])
        expected = terminal._anchor + first_frame / video.fps
        assert deadline == pytest.approx(expected, abs=1e-6)


class TestGlitches:
    def test_slow_server_causes_glitches(self):
        env = Environment()
        # Each block holds ~0.5s of video at 4 Mbit/s; a 0.8s service
        # time cannot sustain playback.
        fabric = FakeFabric(env, service_time=0.8)
        terminal = play_once(env, make_terminal(env, fabric))
        assert terminal.stats.glitches > 0
        assert terminal.stats.glitch_durations.count == terminal.stats.glitches

    def test_single_stalled_block_one_glitch(self):
        env = Environment()
        fabric = FakeFabric(env, stall_blocks={10}, stall_for=3.0)
        terminal = play_once(env, make_terminal(env, fabric))
        assert terminal.stats.glitches == 1

    def test_deadline_misses_counted(self):
        env = Environment()
        fabric = FakeFabric(env, stall_blocks={10}, stall_for=3.0)
        terminal = play_once(env, make_terminal(env, fabric))
        assert terminal.stats.deadline_misses >= 1

    def test_glitch_reprimes_buffer(self):
        """After a glitch the terminal refills before restarting, so a
        short stall produces one glitch, not a burst."""
        env = Environment()
        fabric = FakeFabric(env, stall_blocks={8, 9}, stall_for=1.5)
        terminal = play_once(env, make_terminal(env, fabric))
        assert terminal.stats.glitches <= 2


class TestPauses:
    def test_pause_extends_playback(self):
        env = Environment()
        fabric = FakeFabric(env, duration_s=4.0)
        model = PauseModel(enabled=True, mean_pauses_per_video=3.0,
                           mean_pause_duration_s=1.0)
        terminal = make_terminal(env, fabric, pause_model=model)
        done = env.process(terminal.play(0))
        env.run(until=done)
        if terminal.stats.pauses_taken:
            assert env.now > 4.0
        assert terminal.stats.glitches == 0

    def test_pause_plan_sampling(self):
        model = PauseModel(enabled=True, mean_pauses_per_video=2.0,
                           mean_pause_duration_s=120.0)
        plan = model.sample(RandomSource(1), 10_000)
        assert plan == sorted(plan)
        assert all(0 <= frame < 10_000 for frame, _ in plan)
        assert all(duration > 0 for _, duration in plan)

    def test_disabled_model_empty_plan(self):
        assert PauseModel(enabled=False).sample(RandomSource(1), 100) == []


class TestSeek:
    def test_seek_restarts_at_new_position(self):
        env = Environment()
        fabric = FakeFabric(env, duration_s=4.0)
        terminal = make_terminal(env, fabric)
        video = fabric.library[0]
        target = int(video.frame_count * 0.75)

        play = env.process(terminal.play(0))

        def seeker(env):
            yield env.timeout(1.0)
            terminal.seek(target)

        env.process(seeker(env))
        env.run(until=play)  # old display loop exits on epoch change
        resume = env.process(terminal.resume_display_after_seek())
        env.run(until=resume)
        assert terminal._next_frame == video.frame_count
        assert env.now == pytest.approx(1.0 + 1.0, abs=0.5)

    def test_seek_validation(self):
        env = Environment()
        fabric = FakeFabric(env)
        terminal = make_terminal(env, fabric)
        with pytest.raises(ValueError):
            terminal.seek(0)  # no active video


def reference_session(video, start_frame):
    """The delivery bitmap the old per-block loop built for a start frame."""
    schedule = video.schedule(BLOCK)
    start_byte = int(video.sequence.offsets()[start_frame])
    start_block = min(start_byte // BLOCK, schedule.block_count - 1)
    delivered = bytearray(schedule.block_count)
    for early in range(start_block):
        delivered[early] = 1
    return delivered, start_block


def bitmap_edge(delivered):
    """``(_contig, _ahead)`` read off a delivery bitmap by scanning it:
    the first undelivered block, and the delivered blocks past it."""
    contig = next((k for k, bit in enumerate(delivered) if not bit), len(delivered))
    return contig, {k for k in range(contig, len(delivered)) if delivered[k]}


def session_state(terminal):
    return (
        terminal._contig,
        terminal._ahead,
        terminal._freed,
        terminal._next_request,
    )


def assert_matches_bitmap(terminal, delivered, block):
    contig, ahead = bitmap_edge(delivered)
    assert type(terminal._ahead) is set
    assert session_state(terminal) == (contig, ahead, block, block)
    # The held-slot count is the bitmap's delivered count.
    assert terminal._contig + len(terminal._ahead) == sum(delivered)


class TestSessionBitmap:
    """``_begin_session`` and ``seek`` start the delivery edge where the
    old per-block loop's bitmap put it, at the first, a middle and the
    last block of a title."""

    @staticmethod
    def start_frames(video):
        schedule = video.schedule(BLOCK)
        last_block_frame = schedule.first_frame[schedule.block_count - 1]
        frames = {
            "first": 0,
            "middle": video.frame_count // 2,
            "last block": max(last_block_frame, video.frame_count - 1),
        }
        blocks = {name: reference_session(video, f)[1] for name, f in frames.items()}
        assert blocks["first"] == 0
        assert 0 < blocks["middle"] < schedule.block_count - 1
        assert blocks["last block"] == schedule.block_count - 1
        return frames.values()

    def test_begin_session_matches_the_loop(self):
        env = Environment()
        fabric = FakeFabric(env, duration_s=4.0)
        terminal = make_terminal(env, fabric)
        video = fabric.library[0]
        for frame in self.start_frames(video):
            terminal._begin_session(video, frame)
            assert_matches_bitmap(terminal, *reference_session(video, frame))
            assert terminal._next_frame == frame

    def test_seek_matches_the_loop(self):
        env = Environment()
        fabric = FakeFabric(env, duration_s=4.0)
        terminal = make_terminal(env, fabric)
        video = fabric.library[0]
        terminal._begin_session(video, video.frame_count // 3)
        for frame in self.start_frames(video):
            terminal.seek(frame)
            assert_matches_bitmap(terminal, *reference_session(video, frame))
            assert terminal._next_frame == frame

    def test_every_frame_starts_in_the_block_of_its_first_byte(self):
        env = Environment()
        fabric = FakeFabric(env, duration_s=4.0)
        terminal = make_terminal(env, fabric)
        video = fabric.library[0]
        offsets = video.sequence.offsets().tolist()
        for frame in range(video.frame_count):
            terminal._begin_session(video, frame)
            assert terminal._next_request == offsets[frame] // BLOCK, frame
            terminal.seek(video.frame_count - 1 - frame)
            seek_block = offsets[video.frame_count - 1 - frame] // BLOCK
            assert terminal._next_request == seek_block, frame


class HeldNode:
    """A server stand-in that completes a request only when told to."""

    def __init__(self, env):
        self.env = env
        self.pending = []  # (block, done event)

    def request_block(self, terminal_id, video_id, block, size, placement, deadline):
        done = self.env.event()
        self.pending.append((block, done))
        return done


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["deliver"] * 4 + ["display", "seek", "begin"]),
        st.floats(0, 1, exclude_max=True),
    ),
    max_size=60,
)


@given(start=st.floats(0, 1, exclude_max=True), steps=STEPS)
@settings(max_examples=60, deadline=None)
def test_delivery_edge_matches_a_bitmap_scan(start, steps):
    """Deliveries in random order, display freeing slots, a mid-title
    ``_begin_session`` and ``seek``: after every step the edge, the
    blocks past it and the freed count are what a delivery bitmap and
    the frame offsets give."""
    env = Environment()
    fabric = FakeFabric(env, duration_s=10.0)
    node = fabric._node = HeldNode(env)
    terminal = make_terminal(env, fabric, slots=6)
    video = fabric.library[0]
    schedule = video.schedule(BLOCK)
    offsets = video.sequence.offsets().tolist()
    # Frames needing block k end at the frame holding its last byte.
    last_frame = [
        bisect_right(offsets, min((k + 1) * BLOCK, offsets[-1]) - 1) - 1
        for k in range(schedule.block_count)
    ]
    epochs = []  # the session epoch of each request in node.pending

    def settle():
        env.run()
        epochs.extend([terminal._epoch] * (len(node.pending) - len(epochs)))

    def restart(fraction, seek):
        frame = int(fraction * video.frame_count)
        if seek:
            terminal.seek(frame)
        else:
            terminal._begin_session(video, frame)
            env.process(terminal._requester(terminal._epoch))
        settle()
        return reference_session(video, frame)[0]

    delivered = restart(start, seek=False)
    for step, fraction in steps:
        if step == "deliver" and node.pending:
            index = int(fraction * len(node.pending))
            block, done = node.pending.pop(index)
            current = epochs.pop(index) == terminal._epoch
            done.succeed(env.now)
            settle()
            if current:
                delivered[block] = 1
        elif step == "display":
            # Display everything delivered so far, freeing its slots.
            terminal._next_frame = max(
                terminal._next_frame, schedule.displayable[terminal._contig]
            )
            terminal._free_displayed_blocks()
            settle()
        elif step in ("seek", "begin"):
            delivered = restart(fraction, seek=step == "seek")
        contig, ahead = bitmap_edge(delivered)
        assert (terminal._contig, terminal._ahead) == (contig, ahead)
        # Freed: the blocks whose last frame has displayed.
        assert terminal._freed == bisect_left(last_frame, terminal._next_frame)


class TestConstruction:
    def test_too_little_memory_rejected(self):
        env = Environment()
        fabric = FakeFabric(env)
        with pytest.raises(ValueError):
            make_terminal(env, fabric, slots=1)

    def test_bad_initial_fraction_rejected(self):
        env = Environment()
        fabric = FakeFabric(env)

        class FixedAccess:
            def select(self):
                return 0

        with pytest.raises(ValueError):
            Terminal(env, 0, fabric, FixedAccess(), RandomSource(1),
                     4 * BLOCK, initial_position_fraction=1.5)
