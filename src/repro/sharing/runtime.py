"""The stream-sharing runtime: batches and buffer chains.

One :class:`SharingRuntime` per system (or per cluster member) carries
the two mechanisms a :class:`~repro.sharing.spec.SharingSpec` policy
composes:

* a **batch coordinator** (paper §8.2 piggybacking): the first start
  of a title opens a :class:`StreamBatch`; same-title starts inside the
  window join and every member launches at the same instant, so all
  but one merge onto shared in-flight buffer reads.  Closed terminals
  keep a slot each (:meth:`SharingRuntime.request_start`); in the open
  workload the batch holds its leader's slot, joiners (queued requests
  included) ride it, and the *last* member to depart releases it.
* a **chain registry**: terminals report playback starts, and a new
  stream close behind a predecessor forms a :class:`BufferChain`; the
  server nodes report every block reference, the registry pins the
  predecessor's recently fetched pages (bounded by
  ``chain_pin_limit_blocks``) and the successor unpins them as it
  consumes them.  A predecessor pause/seek/abandon — or a MISS on
  a block the predecessor had fetched (the page was evicted anyway) —
  *breaks* the chain and releases every held pin.

Determinism: the runtime draws no randomness; every decision is a pure
function of simulation state at deterministic event times.
"""

from __future__ import annotations

import typing

from repro.bufferpool.pool import MISS
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.telemetry import trace as trace_events

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.bufferpool.page import Page, PageKey
    from repro.bufferpool.pool import BufferPool
    from repro.sharing.spec import SharingSpec
    from repro.telemetry.trace import TraceRecorder
    from repro.terminal.terminal import Terminal


class SharingStats:
    """Counters over the measurement window (reset like all run stats)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Batches that reached their launch instant.
        self.batches_launched = 0
        #: Members launched per batch beyond the leader (each one is a
        #: disk stream the batch saved).
        self.batch_followers = 0
        #: Joins that left before launch (reneged inside the window).
        self.batch_withdrawn = 0
        #: Of the follower launches, how many had first queued for an
        #: admission slot and converted to the batch instead.
        self.queue_converts = 0
        #: Chains formed / block reads served off a predecessor's
        #: fetches / chains broken mid-flight.
        self.chains_formed = 0
        self.chain_reads = 0
        self.chain_breaks = 0


class StreamBatch:
    """One open (then launched) batched-admission group for a title."""

    __slots__ = ("video_id", "launch", "live", "launched", "_release")

    def __init__(self, env: Environment, video_id: int, release) -> None:
        self.video_id = video_id
        #: Fires at the end of the window; every member starts then.
        self.launch = env.event()
        #: Members currently riding the batch (the leader included).
        self.live = 1
        self.launched = False
        self._release = release

    def join(self) -> None:
        if self.launched:
            raise ValueError("join() after the batch launched")
        self.live += 1

    def withdraw(self) -> None:
        """A joined member leaves before launch (reneged in-window)."""
        if self.launched:
            raise ValueError("withdraw() after the batch launched")
        if self.live <= 1:
            raise ValueError("withdraw() would leave the batch leaderless")
        self.live -= 1

    def depart(self) -> None:
        """A launched member's session ended; the last one out frees
        the batch's single admission slot."""
        if not self.launched:
            raise ValueError("depart() before the batch launched")
        if self.live <= 0:
            raise ValueError("depart() with no live members")
        self.live -= 1
        if self.live == 0 and self._release is not None:
            self._release()


class BufferChain:
    """A successor session feeding off a predecessor's buffer pages."""

    __slots__ = (
        "video_id",
        "predecessor",
        "successor",
        "pred_epoch",
        "succ_epoch",
        "pinned",
        "pred_frontier",
        "succ_frontier",
    )

    def __init__(
        self,
        video_id: int,
        predecessor: "Terminal",
        successor: "Terminal",
    ) -> None:
        self.video_id = video_id
        self.predecessor = predecessor
        self.successor = successor
        self.pred_epoch = predecessor._epoch
        self.succ_epoch = successor._epoch
        #: Pages held pinned on the successor's behalf.
        self.pinned: dict["PageKey", tuple["Page", "BufferPool"]] = {}
        #: Highest block either end has requested so far.
        self.pred_frontier = predecessor._next_request - 1
        self.succ_frontier = successor._next_request - 1


class SharingRuntime:
    """Everything the sharing policy does at run time."""

    def __init__(self, env: Environment, spec: "SharingSpec") -> None:
        self.env = env
        self.spec = spec
        self.batching = spec.batching
        #: Whether chains form; only then do terminals report playback
        #: lifecycle events and nodes report block references.
        self.chaining = spec.chaining
        self.stats = SharingStats()
        #: Optional structured trace (see ``FrontDoor.enable_tracing``).
        self.trace: "TraceRecorder | None" = None
        # Batch coordinator state.
        self._batches: dict[int, StreamBatch] = {}
        self._window_opened: dict[int, Event] = {}
        # Active streams per title: {terminal: epoch at play start}.
        # Insertion-ordered, so scans are deterministic.
        self._streams: dict[int, dict["Terminal", int]] = {}
        self._by_id: dict[int, "Terminal"] = {}
        # Chains indexed from both ends (at most one each way).
        self._chains_by_pred: dict["Terminal", BufferChain] = {}
        self._chains_by_succ: dict["Terminal", BufferChain] = {}

    # ------------------------------------------------------------------
    # Batched admission (driven by the session generators)
    # ------------------------------------------------------------------
    def joinable_batch(self, video_id: int) -> StreamBatch | None:
        """The open batch for *video_id*, if one can still be joined."""
        batch = self._batches.get(video_id)
        if batch is None or batch.launched:
            return None
        if self.spec.max_batch and batch.live >= self.spec.max_batch:
            return None
        return batch

    def open_batch(self, video_id: int, release) -> StreamBatch:
        """An admitted leader opens the launch window for its title.

        *release* is called when the last launched member departs —
        the batch holds exactly one admission slot for its whole life.

        If a *full* batch is still open for the title (``max_batch``
        reached, so this leader could not join it), the new batch stays
        unregistered: it launches after the window like any other but
        accepts no joiners, and queued waiters are not signalled.
        """
        batch = StreamBatch(self.env, video_id, release)
        registered = video_id not in self._batches
        if registered:
            self._batches[video_id] = batch
        self.env.process(
            self._launch_later(batch), name=f"sharing-batch-{video_id}"
        )
        if self.trace is not None:
            self.trace.record(
                trace_events.BATCH_OPEN, video=video_id,
                window_s=self.spec.window_s,
            )
        if registered:
            opened = self._window_opened.pop(video_id, None)
            if opened is not None:
                opened.succeed()
        return batch

    def request_start(self, video_id: int) -> Event:
        """A closed terminal's start: join or open the title's batch and
        return its launch event.  The terminal keeps its own admission
        slot, so the batch releases nothing."""
        batch = self.joinable_batch(video_id)
        if batch is None:
            batch = self.open_batch(video_id, release=None)
        else:
            batch.join()
        return batch.launch

    def window_opened(self, video_id: int) -> Event:
        """Fires when a batch window next opens for *video_id* (lets a
        queued admission request convert into a batch join)."""
        event = self._window_opened.get(video_id)
        if event is None:
            event = self.env.event()
            self._window_opened[video_id] = event
        return event

    def _launch_later(self, batch: StreamBatch):
        yield self.env.timeout(self.spec.window_s)
        if self._batches.get(batch.video_id) is batch:
            del self._batches[batch.video_id]
        batch.launched = True
        self.stats.batches_launched += 1
        self.stats.batch_followers += batch.live - 1
        if self.trace is not None:
            self.trace.record(
                trace_events.BATCH_LAUNCH, video=batch.video_id, size=batch.live
            )
        batch.launch.succeed()

    # ------------------------------------------------------------------
    # Playback lifecycle (reported by terminals when chaining)
    # ------------------------------------------------------------------
    def note_play_start(self, terminal: "Terminal", video_id: int) -> None:
        """A terminal begins (or rejoins) playback of *video_id*."""
        streams = self._streams.setdefault(video_id, {})
        fps = terminal._video.fps
        position = terminal._next_frame
        if terminal not in self._chains_by_succ:
            predecessor = self._nearest_ahead(
                streams, position, self.spec.chain_max_lag_s * fps, terminal
            )
            if predecessor is not None:
                chain = BufferChain(video_id, predecessor, terminal)
                self._chains_by_pred[predecessor] = chain
                self._chains_by_succ[terminal] = chain
                self.stats.chains_formed += 1
                if self.trace is not None:
                    self.trace.record(
                        trace_events.CHAIN_FORM,
                        video=video_id,
                        predecessor=predecessor.terminal_id,
                        successor=terminal.terminal_id,
                        lag_blocks=chain.pred_frontier - chain.succ_frontier,
                    )
        streams[terminal] = terminal._epoch
        self._by_id[terminal.terminal_id] = terminal

    def _nearest_ahead(
        self,
        streams: dict["Terminal", int],
        position: int,
        max_lag_frames: float,
        newcomer: "Terminal",
    ) -> "Terminal | None":
        """The closest live stream ahead of *position* within the lag
        bound that has no successor yet (skipping stale entries whose
        session already changed)."""
        best: "Terminal | None" = None
        best_lag = 0
        for other, epoch in streams.items():
            if other is newcomer or other._epoch != epoch:
                continue
            if other in self._chains_by_pred:
                continue
            lag = other._next_frame - position
            if lag <= 0 or lag > max_lag_frames:
                continue
            if best is None or lag < best_lag:
                best, best_lag = other, lag
        return best

    def note_play_end(self, terminal: "Terminal", video_id: int) -> None:
        """Playback finished (completed or already-abandoned exit)."""
        self._drop_stream(terminal, video_id)
        # A completed predecessor stops fetching: release the pins (the
        # pages stay resident until evicted normally) without counting a
        # break — the chain simply ran its course.
        chain = self._chains_by_pred.get(terminal)
        if chain is not None:
            self._dissolve_chain(chain)
        chain = self._chains_by_succ.get(terminal)
        if chain is not None:
            self._dissolve_chain(chain)

    def _drop_stream(self, terminal: "Terminal", video_id: int) -> None:
        streams = self._streams.get(video_id)
        if streams is not None:
            streams.pop(terminal, None)
            if not streams:
                del self._streams[video_id]
        if self._by_id.get(terminal.terminal_id) is terminal:
            del self._by_id[terminal.terminal_id]

    def note_pause(self, terminal: "Terminal") -> None:
        """The viewer paused: a successor would overrun a stalled
        predecessor, so the chain breaks."""
        chain = self._chains_by_pred.get(terminal)
        if chain is not None:
            self._break_chain(chain, "pause")

    def note_seek(self, terminal: "Terminal") -> None:
        """A seek discards the position both chain directions rely on."""
        chain = self._chains_by_pred.get(terminal)
        if chain is not None:
            self._break_chain(chain, "seek")
        chain = self._chains_by_succ.get(terminal)
        if chain is not None:
            self._dissolve_chain(chain)

    def note_abandon(self, terminal: "Terminal") -> None:
        """The viewer departed mid-video.

        Its stream is dropped now: a viewer who leaves while priming
        never reaches :meth:`note_play_end`.
        """
        self._drop_stream(terminal, terminal._video.video_id)
        chain = self._chains_by_pred.get(terminal)
        if chain is not None:
            self._break_chain(chain, "abandon")
        chain = self._chains_by_succ.get(terminal)
        if chain is not None:
            self._dissolve_chain(chain)

    # ------------------------------------------------------------------
    # Buffer chaining (reported by the server nodes per block reference)
    # ------------------------------------------------------------------
    def note_block(
        self,
        terminal_id: int,
        video_id: int,
        block: int,
        status: str,
        page: "Page",
        pool: "BufferPool",
    ) -> None:
        """One served block reference (called after the page loaded)."""
        terminal = self._by_id.get(terminal_id)
        if terminal is None:
            return
        chain = self._chains_by_succ.get(terminal)
        if chain is not None and chain.video_id == video_id:
            held = chain.pinned.pop((video_id, block), None)
            if held is not None:
                held[1].unpin(held[0])
            if block > chain.succ_frontier:
                chain.succ_frontier = block
            if block <= chain.pred_frontier:
                if status == MISS:
                    # The predecessor had fetched this block but the
                    # page is gone: the bridge collapsed.
                    self._break_chain(chain, "evicted")
                else:
                    self.stats.chain_reads += 1
        chain = self._chains_by_pred.get(terminal)
        if chain is not None and chain.video_id == video_id:
            if block > chain.pred_frontier:
                chain.pred_frontier = block
            key = (video_id, block)
            if (
                block > chain.succ_frontier
                and key not in chain.pinned
                and len(chain.pinned) < self.spec.chain_pin_limit_blocks
            ):
                pool.pin(page)
                chain.pinned[key] = (page, pool)

    def _release_pins(self, chain: BufferChain) -> None:
        for held_page, held_pool in chain.pinned.values():
            held_pool.unpin(held_page)
        chain.pinned.clear()

    def _unlink_chain(self, chain: BufferChain) -> None:
        if self._chains_by_pred.get(chain.predecessor) is chain:
            del self._chains_by_pred[chain.predecessor]
        if self._chains_by_succ.get(chain.successor) is chain:
            del self._chains_by_succ[chain.successor]

    def _break_chain(self, chain: BufferChain, reason: str) -> None:
        self._release_pins(chain)
        self._unlink_chain(chain)
        self.stats.chain_breaks += 1
        if self.trace is not None:
            self.trace.record(
                trace_events.CHAIN_BREAK,
                video=chain.video_id,
                predecessor=chain.predecessor.terminal_id,
                successor=chain.successor.terminal_id,
                reason=reason,
            )

    def _dissolve_chain(self, chain: BufferChain) -> None:
        """Unpin and unlink without counting a break (orderly end)."""
        self._release_pins(chain)
        self._unlink_chain(chain)

    def reset_stats(self) -> None:
        # In-flight batches and chains deliberately survive the reset:
        # they are live state, not statistics — clearing an open batch
        # would strand every session waiting on its launch.
        self.stats.reset()
