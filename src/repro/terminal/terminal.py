"""The video terminal (paper §5.1).

A terminal primes its buffers, then displays the movie frame-by-frame
while concurrently requesting subsequent stripe blocks — always keeping
as many blocks buffered or on order as its memory allows.  If display
catches up with delivery, a *glitch* occurs: the terminal stops, counts
the glitch, re-primes its buffers, and resumes.

Playback is frame-accurate but event-batched: the display process wakes
only at block boundaries and stall points, reading everything between
from the video's precomputed per-block tables (``BlockSchedule``).
"""

from __future__ import annotations

import typing

from repro.media.access import BoundAccessModel
from repro.media.video import BlockSchedule, Video
from repro.sim.environment import Environment
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Gate
from repro.sim.rng import RandomSource
from repro.sim.stats import Tally
from repro.terminal.pauses import PauseModel

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import ServerFabric


class TerminalStats:
    """One terminal's playback statistics.

    The record outlives its terminal: the system keeps it (registered,
    so the warm-up reset zeroes it) after a session ends and its
    :class:`Terminal` is freed.
    """

    __slots__ = (
        "glitches",
        "fault_glitches",
        "glitch_durations",
        "startup_latency",
        "response_time",
        "deadline_misses",
        "blocks_received",
        "videos_completed",
        "pauses_taken",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.glitches = 0
        #: Glitches that began while an injected fault was active (or
        #: just after one ended) — see repro.faults.
        self.fault_glitches = 0
        self.glitch_durations = Tally()
        self.startup_latency = Tally()
        self.response_time = Tally()
        self.deadline_misses = 0
        self.blocks_received = 0
        self.videos_completed = 0
        self.pauses_taken = 0

    #: The component registry's name for :meth:`reset`.
    reset_stats = reset


class Terminal:
    __slots__ = (
        "env",
        "terminal_id",
        "fabric",
        "_locate_block",
        "_proxy",
        "_sharing",
        "access",
        "rng",
        "memory_bytes",
        "block_size",
        "slots",
        "pause_model",
        "initial_position_fraction",
        "stats",
        "startup_anchor",
        "qos",
        "_video",
        "_schedule",
        "_epoch",
        "_ahead",
        "_contig",
        "_freed",
        "_outstanding",
        "_next_request",
        "_next_frame",
        "_anchor",
        "_display_fps",
        "_playing",
        "_departed",
        "_slot_gate",
        "_data_gate",
        "__weakref__",
    )

    def __init__(
        self,
        env: Environment,
        terminal_id: int,
        fabric: "ServerFabric",
        access: BoundAccessModel,
        rng: RandomSource,
        memory_bytes: int,
        pause_model: PauseModel | None = None,
        initial_position_fraction: float = 0.0,
    ) -> None:
        self.env = env
        self.terminal_id = terminal_id
        self.fabric = fabric
        # Replica-aware fabrics expose locate_block (routes to the
        # healthiest copy); plain fabrics fall back to the layout.
        # Resolved once — the per-block fetch path skips the getattr.
        self._locate_block = getattr(fabric, "locate_block", None)
        # Proxied fabrics expose a prefix-cache proxy serving each
        # title's head; None (the default) keeps the direct path.
        self._proxy = getattr(fabric, "proxy", None)
        # Stream-sharing fabrics expose a sharing runtime; the terminal
        # reports playback lifecycle events only when the policy chains
        # streams, so everything else keeps the direct path.
        sharing = getattr(fabric, "sharing", None)
        self._sharing = sharing if sharing is not None and sharing.chaining else None
        self.access = access
        self.rng = rng
        self.memory_bytes = memory_bytes
        self.block_size = fabric.block_size
        self.slots = memory_bytes // fabric.block_size
        if self.slots < 2:
            raise ValueError(
                f"terminal memory of {memory_bytes} bytes holds fewer than two "
                f"{fabric.block_size}-byte stripe blocks"
            )
        self.pause_model = pause_model or PauseModel()
        if not 0.0 <= initial_position_fraction <= 1.0:
            raise ValueError(
                f"initial_position_fraction must be in [0, 1], "
                f"got {initial_position_fraction}"
            )
        self.initial_position_fraction = initial_position_fraction
        self.stats = TerminalStats()
        #: When set (by the open-system session layer), the next
        #: playback's startup latency is measured from this instant —
        #: the customer's *arrival* — so admission-queue and batch-window
        #: waits count toward the startup SLO.  None measures from the
        #: play() call, the closed-system behaviour.
        self.startup_anchor: float | None = None
        #: Optional shared :class:`~repro.workload.qos.QosMonitor` fed
        #: one latency per playback start (set by system assembly).
        self.qos = None

        # Per-session playback state (reset by _reset_session).
        self._video: Video | None = None
        self._schedule: BlockSchedule | None = None
        self._epoch = 0
        #: Blocks ``0.._contig - 1`` are delivered (or precede the
        #: session's start); ``_ahead`` holds the blocks delivered past
        #: that edge, at most the fetches outstanding.
        self._contig = 0
        self._ahead: set[int] = set()
        self._freed = 0
        self._outstanding = 0
        self._next_request = 0
        self._next_frame = 0
        self._anchor = 0.0
        #: The session video's ``fps``, cached for the display hot path.
        self._display_fps = 0.0
        self._playing = False
        #: Set by :meth:`abandon`: the customer left and no delivery
        #: for this terminal will ever arrive again.
        self._departed = False

        self._slot_gate = Gate(env)
        self._data_gate = Gate(env)

    # ------------------------------------------------------------------
    # Main loop: pick a video, watch it, repeat (closed system, §6)
    # ------------------------------------------------------------------
    def start(self, initial_delay: float) -> None:
        self.env.process(self._run(initial_delay), name=f"terminal-{self.terminal_id}")

    def _run(self, initial_delay: float):
        yield self.env.timeout(initial_delay)
        first = True
        while True:
            # Admission control (a no-op unless the server enforces a
            # stream cap), then any §8.2 launch batch of the sharing policy.
            admission = getattr(self.fabric, "request_admission", None)
            if admission is not None:
                yield admission()
            video_id = self.access.select()
            launch = self.fabric.request_start(video_id)
            if launch is not None:
                yield launch
            start_frame = 0
            if first and self.initial_position_fraction > 0:
                # Join the first video mid-stream so that a short
                # measurement window sees terminals spread uniformly
                # through their videos, as a long-running closed system
                # would be.
                video = self.fabric.library[video_id]
                limit = int(video.frame_count * self.initial_position_fraction)
                if limit > 0:
                    start_frame = self.rng.randint(0, limit - 1)
            first = False
            yield from self.play(video_id, start_frame)
            release = getattr(self.fabric, "release_admission", None)
            if release is not None:
                release()

    # ------------------------------------------------------------------
    # One viewing
    # ------------------------------------------------------------------
    def play(self, video_id: int, start_frame: int = 0):
        """Generator: watch *video_id* from *start_frame* to the end."""
        video = self.fabric.library[video_id]
        self._begin_session(video, start_frame)
        epoch = self._epoch
        if self._sharing is not None:
            self._sharing.note_play_start(self, video_id)
        session_start = (
            self.env.now if self.startup_anchor is None else self.startup_anchor
        )
        self.startup_anchor = None
        self.env.process(
            self._requester(epoch), name=f"terminal-{self.terminal_id}-req"
        )
        pauses = self.pause_model.sample(self.rng, video.frame_count)
        if start_frame:
            # A mid-video join only experiences pauses still ahead.
            pauses = [pause for pause in pauses if pause[0] >= start_frame]

        # Prime, then display until the video ends.
        yield from self._wait_primed()
        startup_latency = self.env.now - session_start
        self.stats.startup_latency.record(startup_latency)
        if self.qos is not None:
            self.qos.record_startup(startup_latency)
        # The anchor is the (virtual) time frame 0 displayed; display of
        # frame f is due at anchor + f/fps, which makes the first frame
        # due right now even for a mid-video start.
        self._anchor = self.env.now - self._next_frame / self._display_fps
        self._playing = True
        yield from self._display(epoch, pauses)
        self._playing = False
        if self._epoch == epoch and self._next_frame >= video.frame_count:
            self.stats.videos_completed += 1
        if self._sharing is not None:
            self._sharing.note_play_end(self, video_id)
        return None

    def _begin_session(self, video: Video, start_frame: int = 0) -> None:
        if start_frame < 0 or start_frame >= video.frame_count:
            raise ValueError(
                f"start frame {start_frame} outside video of {video.frame_count} frames"
            )
        self._epoch += 1
        self._video = video
        schedule = video.schedule(self.block_size)
        self._schedule = schedule
        start_block = schedule.block_of_frame(start_frame)
        self._ahead.clear()
        self._contig = start_block
        self._freed = start_block
        self._outstanding = 0
        self._next_request = start_block
        self._next_frame = start_frame
        self._display_fps = video.fps
        self._playing = False

    # ------------------------------------------------------------------
    # Display process (runs inline in play())
    # ------------------------------------------------------------------
    def _display(self, epoch: int, pauses: list[tuple[int, float]]):
        env = self.env
        schedule = self._schedule
        displayable_after = schedule.displayable
        frame_count = self._video.frame_count
        pause_index = 0

        while self._next_frame < frame_count and self._epoch == epoch:
            # Take a pause exactly at its frame, before displaying it
            # (and before any glitch accounting — a paused viewer sees
            # no glitch; the terminal keeps filling its buffers).
            if pause_index < len(pauses) and pauses[pause_index][0] <= self._next_frame:
                duration = pauses[pause_index][1]
                pause_index += 1
                self.stats.pauses_taken += 1
                if self._sharing is not None:
                    self._sharing.note_pause(self)
                yield env.timeout(duration)
                self._anchor += duration
                continue

            displayable = displayable_after[self._contig]
            if displayable <= self._next_frame:
                # The frame due now has not fully arrived: glitch.
                yield from self._glitch()
                continue

            target = displayable
            freed = self._freed
            if freed < schedule.block_count:
                # One past the last frame needing the oldest held block.
                target = min(
                    target, displayable_after[freed + 1] + schedule.straddles[freed]
                )
            if pause_index < len(pauses):
                # Stop at the next pause point; the branch above takes
                # the pause once display reaches it.
                target = min(target, pauses[pause_index][0])
            due = self._anchor + target / self._display_fps
            now = env.now
            if due > now:
                yield Timeout(env, due - now)
            if self._epoch != epoch:
                return None
            self._next_frame = target
            self._free_displayed_blocks()
        return None

    def _free_displayed_blocks(self) -> None:
        schedule = self._schedule
        first_frame, straddles = schedule.first_frame, schedule.straddles
        freed = start = self._freed
        # Block k's last frame is first_frame[k + 1] - 1 + straddles[k].
        while (
            freed < schedule.block_count
            and self._next_frame >= first_frame[freed + 1] + straddles[freed]
        ):
            freed += 1
        if freed != start:
            self._freed = freed
            self._slot_gate.open()

    def _glitch(self):
        """Stall: count it, re-prime the buffers, restart display.

        Re-priming "increases the duration of the glitch but reduces the
        likelihood of a second glitch occurring immediately after the
        first" (§5.1).
        """
        started = self.env.now
        self.stats.glitches += 1
        attributable = getattr(self.fabric, "fault_attributable", None)
        if attributable is not None and attributable():
            self.stats.fault_glitches += 1
        # The requester may be asleep on a full buffer; the required
        # block count can have grown (oversized frame), so wake it.
        self._slot_gate.open()
        yield from self._wait_primed()
        self.stats.glitch_durations.record(self.env.now - started)
        self._anchor = self.env.now - self._next_frame / self._display_fps
        return None

    def _wait_primed(self):
        """Wait until the buffer is full (or the video fully delivered).

        "Full" always includes every block of the frame the display is
        stalled on, so waiting is guaranteed to cure the stall.
        """
        schedule = self._schedule
        while True:
            # The edge span is read from the live session's schedule: a
            # search playback may switch videos while this one waits.
            want = min(
                self._freed + max(self.slots, self._schedule.edge_span[self._contig]),
                schedule.block_count,
            )
            if self._contig >= want:
                return None
            # Abandoned while priming, the buffer never fills: wait on an
            # event nothing else holds, not on the data gate, so no
            # terminal -> gate -> process -> terminal cycle outlives the
            # session and refcounting frees both.
            yield Event(self.env) if self._departed else self._data_gate.wait()

    # ------------------------------------------------------------------
    # Request pipeline
    # ------------------------------------------------------------------
    def _requester(self, epoch: int):
        env = self.env
        schedule = self._schedule
        edge_span = schedule.edge_span
        while self._epoch == epoch and self._next_request < schedule.block_count:
            held = self._contig + len(self._ahead) - self._freed
            # A frame spanning more blocks than the terminal has slots (a
            # deep exponential-tail frame) could never become displayable
            # inside the normal window; the terminal temporarily borrows
            # decoder memory for it — the slot limit widens to the span
            # of the frame at the delivery edge — rather than stalling
            # forever.  For ordinary frames the span is 1-2 blocks.
            limit = max(self.slots, edge_span[self._contig])
            if held + self._outstanding >= limit:
                yield self._slot_gate.wait()
                continue
            block = self._next_request
            self._next_request += 1
            self._outstanding += 1
            Process(env, self._fetch_block(block, epoch))
        return None

    def _fetch_block(self, block: int, epoch: int):
        env = self.env
        fabric = self.fabric
        video_id = self._video.video_id
        schedule = self._schedule
        size = schedule.block_bytes(block)
        # Deadline: when the first frame needing *block* will be
        # displayed.  While priming (display stopped), assume display
        # restarts right now — a pessimistic but safe deadline.
        fps = self._display_fps
        if self._playing:
            base = self._anchor
        else:
            base = env.now - self._next_frame / fps
        deadline = base + schedule.first_frame[block] / fps
        locate = self._locate_block
        if locate is not None:
            placement = locate(video_id, block)
        else:
            placement = fabric.layout.locate(video_id, block)
        sent_at = env.now
        # Control message: terminal → server side (origin node, or the
        # proxy when the block falls inside a title's cached prefix).
        yield from fabric.bus.transfer(fabric.control_message_bytes)
        proxy = self._proxy
        if proxy is not None and proxy.serves(video_id, block):
            done = proxy.request_block(
                terminal_id=self.terminal_id,
                video_id=video_id,
                block=block,
                size=size,
                placement=placement,
                deadline=deadline,
            )
        else:
            done = fabric.node(placement.node).request_block(
                terminal_id=self.terminal_id,
                video_id=video_id,
                block=block,
                size=size,
                placement=placement,
                deadline=deadline,
            )
        yield done
        if self._epoch != epoch:
            return None  # Stale delivery from before a seek; discard.
        self._outstanding -= 1
        if block == self._contig:
            contig = block + 1
            ahead = self._ahead
            while contig in ahead:
                ahead.remove(contig)
                contig += 1
            self._contig = contig
        else:
            self._ahead.add(block)
        self.stats.blocks_received += 1
        now = env.now
        self.stats.response_time.record(now - sent_at)
        if now > deadline:
            self.stats.deadline_misses += 1
        self._data_gate.open()
        self._slot_gate.open()
        return None

    def abandon(self) -> None:
        """Stop the current viewing: the customer departs mid-video.

        Used by the open-system session layer when a viewer's time runs
        out (session churn).  Bumping the epoch makes the requester,
        display loop, and in-flight deliveries of this viewing retire at
        their next wakeup — exactly the mechanism :meth:`seek` uses to
        discard a stale stream — and the gates are opened so nothing
        sleeps through the epoch change.
        """
        if self._video is None:
            raise ValueError("abandon() with no active video")
        self._epoch += 1
        self._departed = True
        if self._sharing is not None:
            self._sharing.note_abandon(self)
        self._slot_gate.open()
        self._data_gate.open()

    # ------------------------------------------------------------------
    # Interactive controls (§8.1)
    # ------------------------------------------------------------------
    def seek(self, frame: int) -> None:
        """Jump to *frame* (rewind / fast-forward).

        Discards buffered and in-flight data, then re-primes from the
        new position; the display loop picks the session back up
        exactly as it does after a glitch, so "the procedure for the
        terminal is the same regardless of where in the video it begins
        playback".
        """
        if self._video is None:
            raise ValueError("seek() with no active video")
        if frame < 0 or frame >= self._video.frame_count:
            raise ValueError(
                f"frame {frame} outside video of {self._video.frame_count} frames"
            )
        schedule = self._schedule
        self._epoch += 1
        epoch = self._epoch
        if self._sharing is not None:
            self._sharing.note_seek(self)
        block = schedule.block_of_frame(frame)
        self._outstanding = 0
        # Treat everything before the seek point as already displayed so
        # priming and slot accounting restart cleanly at the new spot.
        self._ahead.clear()
        self._contig = block
        self._freed = block
        self._next_request = block
        self._next_frame = frame
        self.env.process(self._requester(epoch))

    def resume_display_after_seek(self, pauses: list[tuple[int, float]] | None = None):
        """Generator: re-prime at the seek position and play to the end."""
        epoch = self._epoch
        yield from self._wait_primed()
        self._anchor = self.env.now - self._next_frame / self._display_fps
        self._playing = True
        yield from self._display(epoch, pauses or [])
        self._playing = False
        if self._epoch == epoch and self._next_frame >= self._video.frame_count:
            self.stats.videos_completed += 1
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Terminal {self.terminal_id} slots={self.slots}>"
