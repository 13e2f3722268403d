"""The session generator: arrival-driven load instead of a fixed
terminal population.

One :class:`SessionGenerator` process replaces the closed loop of
``Terminal._run``.  It draws session arrivals from the configured
:mod:`arrival process <repro.workload.arrivals>` by thinning, and each
session runs as its own process through the full customer lifecycle:

    arrive → route → (balk | queue → (renege | admit)) → [batch window]
    → stream → (watch to the end | depart early) → release slot

The generator drives a *front door* (:class:`~repro.core.door.
FrontDoor`): the set of members that can serve a title.
:class:`~repro.cluster.system.SpiffiCluster` is the multi-node door; a
standalone :class:`~repro.core.node.SpiffiNode` is a one-member door
that never fails.  The door supplies ``members``, ``qos``,
``catalog_size``, ``route``/``local_id``/``spill_target``, the
per-member ``down_event`` (None when the member can never fail), the
per-placement control message ``place()``, and ``select_on_arrival``.

Where a member can fail, every wait on it (queueing, a batch window,
streaming) also watches its outage event.  When it fires, the session
releases what it held, re-routes among the title's surviving hosts and
resumes from the frame it had reached; a title with no surviving host
is *lost*.  The viewing budget (``mean_view_duration_s``) is drawn at
the first playback and spans migrations.

Every admitted session spawns a fresh :class:`~repro.terminal.terminal.
Terminal` — sessions churn in and out of the system, which is what the
closed model cannot express.  Denied demand (balks, reneges) becomes a
*measured* quantity instead of a coroutine blocked forever in the
admission queue.

Determinism: interarrival gaps, thinning accepts, patience, title
selection, viewing durations, and per-session terminal behaviour each
draw from their own child stream of the door's workload RNG stream, so
verdicts never depend on scheduling order and the closed default draws
nothing at all.
"""

from __future__ import annotations

import math
import typing

from repro.media.access import make_access_model
from repro.sim.rng import RandomSource
from repro.telemetry import trace as trace_events
from repro.terminal.terminal import Terminal
from repro.workload.arrivals import make_arrival_process
from repro.workload.spec import ArrivalSpec

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.trace import TraceRecorder


class SessionStats:
    """Counts over the measurement window (reset like all run stats)."""

    def __init__(self, nodes: int) -> None:
        self._nodes = nodes
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
        #: Admissions per member (one increment per placement,
        #: failover re-placements included).
        self.routed = [0] * self._nodes
        #: Cross-member migrations after a host outage.
        self.failed_over = 0
        #: Sessions dropped because no surviving member hosts the title.
        self.lost = 0
        #: Placement-aware admission: arrivals redirected to another
        #: replica holder instead of balking on the routed member's queue.
        self.spilled = 0


class SessionGenerator:
    """Spawns and retires terminals according to an arrival process."""

    def __init__(self, env, door, spec: ArrivalSpec, rng: RandomSource) -> None:
        self.env = env
        self.door = door
        self.spec = spec
        self.process = make_arrival_process(spec)
        config = door.members[0].config
        self.titles = make_access_model(
            config.access_model, door.catalog_size, config.zipf_skew
        ).bind(rng.spawn("select"))
        self._arrival_rng = rng.spawn("arrivals")
        self._patience_rng = rng.spawn("patience")
        self._view_rng = rng.spawn("views")
        self._session_rng_root = rng
        self._sessions = 0
        self.stats = SessionStats(len(door.members))
        #: Full routing log: ``(session, title, node)`` per admission,
        #: in admission order.  Never reset — the determinism tests
        #: compare whole-run logs across fresh builds.
        self.assignments: list[tuple[int, int, int]] = []
        #: Optional structured trace (see ``FrontDoor.enable_tracing``).
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
    # One customer lifecycle, possibly spanning several members
    # ------------------------------------------------------------------
    def _session(self, session: int):
        env = self.env
        spec = self.spec
        door = self.door
        stats = self.stats
        arrived = env.now
        stats.offered += 1
        if self.trace is not None:  # skip building fields when untraced
            self._record(trace_events.SESSION_ARRIVE, session=session)
        title = self.titles.select() if door.select_on_arrival else None

        admitted = False
        view_deadline = math.inf  # absolute; drawn at first playback
        start_frame = 0
        attempt = 0
        while True:
            node = door.route(title)
            if node is None:
                # No surviving host for this title (partitioned outage).
                if admitted:
                    stats.lost += 1
                    stats.abandoned += 1
                elif attempt == 0:
                    stats.balked += 1
                else:
                    stats.lost += 1
                    stats.reneged += 1
                return None
            member = door.members[node]
            down = door.down_event(node)
            local = door.local_id(title, node)
            yield from door.place()

            # --- batched admission: ride the member's open window ------
            # Batches form per member, so only arrivals routed to the
            # same member share a launch.  Failed-over sessions resume
            # on a slot of their own instead of waiting out a window.
            sharing = member.batcher if attempt == 0 else None
            batch = None
            patience = None
            if sharing is not None:
                batch = sharing.joinable_batch(local)

            # --- bounded wait queue on the routed member ---------------
            if batch is None:
                admission = member.admission
                if attempt == 0 and admission.would_queue and (
                    admission.queue_length >= spec.queue_limit
                ):
                    # Placement-aware admission: before giving up on a
                    # full queue, ask for another replica holder with
                    # room (None whenever the feature is off).
                    node = door.spill_target(title, node, spec.queue_limit)
                    if node is not None:
                        stats.spilled += 1
                        member = door.members[node]
                        admission = member.admission
                        down = door.down_event(node)
                        local = door.local_id(title, node)
                        sharing = member.batcher
                        yield from door.place()  # the redirect's message
                    if node is None or (
                        admission.would_queue
                        and admission.queue_length >= spec.queue_limit
                    ):
                        stats.balked += 1
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
                    if not admitted and spec.mean_patience_s > 0:
                        patience = env.timeout(
                            self._patience_rng.exponential(spec.mean_patience_s)
                        )
                    while not slot.triggered:
                        waits = [slot]
                        if sharing is not None:
                            waits.append(sharing.window_opened(local))
                        if down is not None:
                            waits.append(down)
                        if patience is not None:
                            waits.append(patience)
                        yield self._first(waits)
                        if slot.triggered:
                            break
                        if down is not None and down.triggered:
                            admission.cancel(slot)
                            break
                        # NB: a Timeout is "triggered" from construction
                        # in this kernel (its fire time is fixed at
                        # birth); whether it has elapsed is ``processed``.
                        if patience is not None and patience.processed:
                            admission.cancel(slot)
                            self._renege(session, arrived)
                            return None
                        batch = sharing.joinable_batch(local)
                        if batch is not None:
                            # Queued-then-batched: leave the queue, ride
                            # the window instead of consuming a slot.
                            admission.cancel(slot)
                            sharing.stats.queue_converts += 1
                            break
                        # Window launched or filled before this wakeup: re-arm.
                    if down is not None and down.triggered:
                        if slot.triggered:
                            # Granted a slot on a member that just died
                            # (a release cascaded to us post-outage):
                            # hand it back and take the stream elsewhere.
                            admission.release_slot()
                        attempt += 1
                        stats.failed_over += 1
                        continue
                    if batch is None and self.trace is not None:
                        self._record(
                            trace_events.QUEUE_LEAVE,
                            session=session,
                            waited_s=env.now - arrived,
                        )

            if batch is not None:
                # Joining is a commitment: like a §8.2 delayed start, the
                # window is a service-side startup delay, not queue time,
                # so a direct joiner never reneges inside it.  A queued
                # convert carries its running patience timer in with it.
                batch.join()
                if self.trace is not None:
                    self._record(
                        trace_events.BATCH_JOIN, session=session, video=batch.video_id
                    )
                waits = [batch.launch]
                if down is not None:
                    waits.append(down)
                if patience is not None:
                    waits.append(patience)
                yield self._first(waits)
                if not batch.launch.triggered:
                    batch.withdraw()
                    sharing.stats.batch_withdrawn += 1
                    if down is not None and down.triggered:
                        attempt += 1
                        stats.failed_over += 1
                        continue  # host died during the window: re-route
                    self._renege(session, arrived)
                    return None

            if not admitted:
                admitted = True
                stats.admitted += 1
                if self.trace is not None:
                    self._record(
                        trace_events.SESSION_ADMIT,
                        session=session,
                        waited_s=env.now - arrived,
                    )
            if title is None:
                title = self.titles.select()
                local = door.local_id(title, node)
            stats.routed[node] += 1
            self.assignments.append((session, title, node))

            # --- launch on the member: batch window, then a terminal ---
            if batch is None and sharing is not None:
                # Admitted leader: open the member's launch window; the
                # batch takes over this session's slot (released by the
                # last member to depart).
                batch = sharing.open_batch(local, member.release_admission)
                yield batch.launch
            release = member.release_admission if batch is None else batch.depart
            if env.now >= view_deadline:
                # The rest of the budget went to failing over; leave.
                release()
                stats.abandoned += 1
                return None
            terminal = self._spawn_terminal(session, attempt, member)
            # First placement measures startup from arrival (queue time
            # counts against the SLO); a migration measures the
            # re-buffering from the moment of failover.
            terminal.startup_anchor = arrived if attempt == 0 else env.now
            frame = min(start_frame, member.library[local].frame_count - 1)
            playback = env.process(
                terminal.play(local, frame), name=f"session-{session}-play"
            )
            if view_deadline == math.inf and spec.mean_view_duration_s > 0:
                view_for = self._view_rng.exponential(spec.mean_view_duration_s)
                view_deadline = env.now + view_for

            # --- stream until done, out of budget, or host death -------
            waits = [playback]
            if down is not None:
                waits.append(down)
            if view_deadline < math.inf:
                waits.append(env.timeout(view_deadline - env.now))
            yield self._first(waits)
            if playback.triggered:
                stats.completed += 1
                if self.trace is not None:
                    self._record(
                        trace_events.SESSION_COMPLETE, session=session, video=title
                    )
                release()
                return None
            if down is None or not down.triggered or env.now >= view_deadline:
                # Out of budget.  Decided by the outage event, not the
                # clock: the budget timer can fire a rounding error
                # before ``view_deadline``.
                terminal.abandon()
                stats.abandoned += 1
                if self.trace is not None:
                    self._record(
                        trace_events.SESSION_ABANDON,
                        session=session,
                        video=title,
                        watched_s=view_for,
                    )
                release()
                return None
            # Host outage mid-stream: resume elsewhere from this frame.
            start_frame = terminal._next_frame
            terminal.abandon()
            release()
            attempt += 1
            stats.failed_over += 1

    def _first(self, waits):
        """Wait for the first of *waits*.  A lone wait is yielded bare:
        wrapping it in a condition would add one kernel event."""
        return waits[0] if len(waits) == 1 else self.env.any_of(waits)

    def _renege(self, session: int, arrived: float) -> None:
        self.stats.reneged += 1
        if self.trace is not None:
            self._record(
                trace_events.SESSION_RENEGE,
                session=session,
                waited_s=self.env.now - arrived,
            )

    def _spawn_terminal(self, session: int, attempt: int, member) -> Terminal:
        config = member.config
        name = f"session-{session}" if attempt == 0 else f"session-{session}-m{attempt}"
        terminal = Terminal(
            env=self.env,
            terminal_id=session,
            fabric=member,
            access=member.access,
            rng=self._session_rng_root.spawn(name),
            memory_bytes=config.terminal_memory_bytes,
            pause_model=config.pause_model,
        )
        member.adopt_terminal(terminal)
        # Startup QoS is a front-door account: one monitor sees every
        # start regardless of which member served it.
        terminal.qos = self.door.qos
        return terminal

    def _record(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(kind, **fields)

    def reset_stats(self) -> None:
        self.stats.reset()
