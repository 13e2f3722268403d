"""The session generator: arrival-driven load instead of a fixed
terminal population.

One :class:`SessionGenerator` process replaces the closed loop of
``Terminal._run``.  It draws session arrivals from the configured
:mod:`arrival process <repro.workload.arrivals>` by thinning, and each
session runs as its own process through the full customer lifecycle:

    arrive → (balk | queue → (renege | admit)) → [batch window] →
    stream → (watch to the end | depart early) → release slot

Every admitted session spawns a fresh :class:`~repro.terminal.terminal.
Terminal` — sessions churn in and out of the system, which is what the
closed model cannot express.  Denied demand (balks, reneges) becomes a
*measured* quantity instead of a coroutine blocked forever in the
admission queue.

Determinism: interarrival gaps, thinning accepts, patience, title
selection, viewing durations, and per-session terminal behaviour each
draw from their own child stream of the ``"workload"`` RNG stream, so
verdicts never depend on scheduling order and the closed default draws
nothing at all.
"""

from __future__ import annotations

import typing

from repro.media.access import make_access_model
from repro.sim.rng import RandomSource
from repro.telemetry import trace as trace_events
from repro.terminal.terminal import Terminal
from repro.workload.arrivals import make_arrival_process
from repro.workload.popularity import RotatingPopularity
from repro.workload.spec import ArrivalSpec

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import SpiffiSystem
    from repro.telemetry.trace import TraceRecorder


class SessionStats:
    """Counts over the measurement window (reset like all run stats)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Sessions that arrived (balked ones included).
        self.offered = 0
        #: Sessions granted a stream slot.
        self.admitted = 0
        #: Arrivals rejected on the spot: wait queue full.
        self.balked = 0
        #: Queued sessions whose patience ran out before admission.
        self.reneged = 0
        #: Admitted sessions that finished their video.
        self.completed = 0
        #: Admitted sessions that departed before the video ended.
        self.abandoned = 0


class SessionGenerator:
    """Spawns and retires terminals according to an arrival process."""

    def __init__(
        self,
        env,
        system: "SpiffiSystem",
        spec: ArrivalSpec,
        rng: RandomSource,
    ) -> None:
        self.env = env
        self.system = system
        self.spec = spec
        self.process = make_arrival_process(spec)
        config = system.config
        self.popularity = RotatingPopularity(
            make_access_model(
                config.access_model, config.video_count, config.zipf_skew
            ),
            spec,
            rng.spawn("select"),
            rng,
        )
        self._arrival_rng = rng.spawn("arrivals")
        self._patience_rng = rng.spawn("patience")
        self._view_rng = rng.spawn("views")
        self._session_rng_root = rng
        #: Sharing runtime with batched admission, or None.  Resolved
        #: once: system assembly builds the runtime before the workload.
        sharing = getattr(system, "sharing", None)
        self._sharing = sharing if sharing is not None and sharing.batching else None
        self._sessions = 0
        self.stats = SessionStats()
        #: Optional structured trace (see ``enable_session_tracing``).
        self.trace: "TraceRecorder | None" = None

    # ------------------------------------------------------------------
    # Arrival loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.env.process(self._run(), name="session-generator")

    def _run(self):
        env = self.env
        peak = self.process.peak_rate
        while True:
            yield env.timeout(self._arrival_rng.exponential(1.0 / peak))
            rate = self.process.rate_at(env.now)
            if rate < peak and self._arrival_rng.uniform() * peak > rate:
                continue  # Thinned candidate: no arrival at this instant.
            self._sessions += 1
            session = self._sessions
            env.process(self._session(session), name=f"session-{session}")

    # ------------------------------------------------------------------
    # One customer lifecycle
    # ------------------------------------------------------------------
    def _session(self, session: int):
        env = self.env
        spec = self.spec
        system = self.system
        admission = system.admission
        arrived = env.now
        self.stats.offered += 1
        if self.trace is not None:  # skip building fields when untraced
            self._record(trace_events.SESSION_ARRIVE, session=session)
        if self._sharing is not None:
            # Batched admission replaces the slot-per-session lifecycle;
            # kept out of line so the reference path stays byte-identical
            # (including its RNG draw order) when sharing is inert.
            yield from self._batched_session(session, arrived)
            return None

        # --- bounded wait queue: balk, queue, maybe renege -------------
        if admission.would_queue and admission.queue_length >= spec.queue_limit:
            self.stats.balked += 1
            if self.trace is not None:
                self._record(
                    trace_events.SESSION_BALK,
                    session=session,
                    queue_length=admission.queue_length,
                )
            return None
        slot = admission.request_slot()
        if not slot.triggered:
            if self.trace is not None:
                self._record(
                    trace_events.QUEUE_ENTER,
                    session=session,
                    queue_length=admission.queue_length,
                )
            if spec.mean_patience_s > 0:
                patience = self._patience_rng.exponential(spec.mean_patience_s)
                yield env.any_of([slot, env.timeout(patience)])
                if not slot.triggered:
                    admission.cancel(slot)
                    self.stats.reneged += 1
                    if self.trace is not None:
                        self._record(
                            trace_events.SESSION_RENEGE,
                            session=session,
                            waited_s=env.now - arrived,
                        )
                    return None
            else:
                yield slot
            if self.trace is not None:
                self._record(
                    trace_events.QUEUE_LEAVE,
                    session=session,
                    waited_s=env.now - arrived,
                )
        self.stats.admitted += 1
        if self.trace is not None:
            self._record(
                trace_events.SESSION_ADMIT,
                session=session,
                waited_s=env.now - arrived,
            )

        # --- launch a fresh terminal and watch -------------------------
        video_id = self.popularity.select(env.now)
        yield from self._watch(session, arrived, video_id)
        system.release_admission()
        return None

    # ------------------------------------------------------------------
    # Batched-admission lifecycle (sharing policy with "batch")
    # ------------------------------------------------------------------
    def _batched_session(self, session: int, arrived: float):
        """One customer lifecycle under batched admission.

        The title is selected at *arrival* (not after admission) so a
        joinable launch window for it can be recognised: near-
        simultaneous same-title arrivals ride one admission slot — the
        leader's — and one disk stream.  The batch, not the session,
        owns the slot; the last member to depart releases it.
        """
        video_id = self.popularity.select(self.env.now)
        batch = yield from self._acquire_stream(session, arrived, video_id)
        if batch is None:
            return None  # balked or reneged; stats already recorded
        yield from self._watch(session, arrived, video_id)
        batch.depart()
        return None

    def _watch(self, session: int, arrived: float, video_id: int):
        """Spawn the session's terminal and view: to the end, or churn
        out early.  The caller releases whatever admitted the session."""
        env = self.env
        spec = self.spec
        terminal = self._spawn_terminal(session)
        # Startup latency spans the whole wait: arrival to first frame.
        terminal.startup_anchor = arrived
        playback = env.process(
            terminal.play(video_id), name=f"session-{session}-play"
        )
        if spec.mean_view_duration_s > 0:
            view_for = self._view_rng.exponential(spec.mean_view_duration_s)
            yield env.any_of([playback, env.timeout(view_for)])
            if not playback.triggered:
                terminal.abandon()
                self.stats.abandoned += 1
                if self.trace is not None:
                    self._record(
                        trace_events.SESSION_ABANDON,
                        session=session,
                        video=video_id,
                        watched_s=view_for,
                    )
            else:
                self.stats.completed += 1
                if self.trace is not None:
                    self._record(
                        trace_events.SESSION_COMPLETE, session=session, video=video_id
                    )
        else:
            yield playback
            self.stats.completed += 1
            if self.trace is not None:
                self._record(
                    trace_events.SESSION_COMPLETE, session=session, video=video_id
                )

    def _acquire_stream(self, session: int, arrived: float, video_id: int):
        """Join or open a launch batch; None when the session gave up.

        Followers join an open window without touching the admission
        controller.  Leaders go through the classical bounded queue —
        except that a window opening for their title *while queued*
        converts the wait into a slot-free join (``queue_converts``).
        """
        env = self.env
        spec = self.spec
        admission = self.system.admission
        sharing = self._sharing
        batch = sharing.joinable_batch(video_id)
        if batch is not None:
            return (yield from self._join_batch(session, arrived, batch, None))
        if admission.would_queue and admission.queue_length >= spec.queue_limit:
            self.stats.balked += 1
            if self.trace is not None:
                self._record(
                    trace_events.SESSION_BALK,
                    session=session,
                    queue_length=admission.queue_length,
                )
            return None
        slot = admission.request_slot()
        if not slot.triggered:
            if self.trace is not None:
                self._record(
                    trace_events.QUEUE_ENTER,
                    session=session,
                    queue_length=admission.queue_length,
                )
            patience_expired = None
            if spec.mean_patience_s > 0:
                patience = self._patience_rng.exponential(spec.mean_patience_s)
                patience_expired = env.timeout(patience)
            while not slot.triggered:
                waits = [slot, sharing.window_opened(video_id)]
                if patience_expired is not None:
                    waits.append(patience_expired)
                yield env.any_of(waits)
                if slot.triggered:
                    break
                # NB: a Timeout is "triggered" from construction in this
                # kernel (its fire time is fixed at birth); whether it
                # has actually elapsed is ``processed``.
                if patience_expired is not None and patience_expired.processed:
                    admission.cancel(slot)
                    self.stats.reneged += 1
                    if self.trace is not None:
                        self._record(
                            trace_events.SESSION_RENEGE,
                            session=session,
                            waited_s=env.now - arrived,
                        )
                    return None
                batch = sharing.joinable_batch(video_id)
                if batch is not None:
                    # Queued-then-batched: leave the queue, ride the
                    # window instead of consuming a slot.
                    admission.cancel(slot)
                    sharing.stats.queue_converts += 1
                    return (
                        yield from self._join_batch(
                            session, arrived, batch, patience_expired
                        )
                    )
                # Window launched or filled before this wakeup: re-arm.
            if self.trace is not None:
                self._record(
                    trace_events.QUEUE_LEAVE,
                    session=session,
                    waited_s=env.now - arrived,
                )
        self.stats.admitted += 1
        if self.trace is not None:
            self._record(
                trace_events.SESSION_ADMIT,
                session=session,
                waited_s=env.now - arrived,
            )
        batch = sharing.open_batch(video_id, self.system.release_admission)
        yield batch.launch
        return batch

    def _join_batch(self, session: int, arrived: float, batch, patience_expired):
        """Ride an open window; None when patience ran out first.

        Joining is a commitment: like a §8.2 delayed start, the wait to
        launch is a service-side startup delay, not queue time, so a
        direct joiner never reneges inside it.  ``patience_expired``
        carries a *queued* customer's already-running patience timer
        into the window — only those can still give up mid-window.
        """
        env = self.env
        batch.join()
        if self.trace is not None:
            self._record(
                trace_events.BATCH_JOIN, session=session, video=batch.video_id
            )
        if patience_expired is not None:
            yield env.any_of([batch.launch, patience_expired])
            if not batch.launch.triggered:
                batch.withdraw()
                self._sharing.stats.batch_withdrawn += 1
                self.stats.reneged += 1
                if self.trace is not None:
                    self._record(
                        trace_events.SESSION_RENEGE,
                        session=session,
                        waited_s=env.now - arrived,
                    )
                return None
        else:
            yield batch.launch
        self.stats.admitted += 1
        if self.trace is not None:
            self._record(
                trace_events.SESSION_ADMIT,
                session=session,
                waited_s=env.now - arrived,
            )
        return batch

    def _spawn_terminal(self, session: int) -> Terminal:
        system = self.system
        config = system.config
        terminal = Terminal(
            env=self.env,
            terminal_id=session,
            fabric=system,
            access=system.access,
            rng=self._session_rng_root.spawn(f"session-{session}"),
            memory_bytes=config.terminal_memory_bytes,
            pause_model=config.pause_model,
        )
        system.adopt_terminal(terminal)
        return terminal

    def _record(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(kind, **fields)

    def reset_stats(self) -> None:
        self.stats.reset()
