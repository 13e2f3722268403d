"""The cluster session generator: routed arrivals with cross-node
failover.

A :class:`ClusterSessionGenerator` is the cluster's single front door —
the multi-node counterpart of :class:`repro.workload.generator.
SessionGenerator`.  It draws arrivals from the configured process over
the **global** catalog, asks the :mod:`router <repro.cluster.routing>`
for a hosting node, and runs each session against that member's own
admission controller and server fabric:

    arrive → route → (balk | queue → (renege | admit)) →
    [batch window] → stream → (complete | depart early) → release

The cluster-only clause is **failover**: every wait on a member —
queueing for admission, streaming a video — also watches that member's
outage event.  When the node drops (see :meth:`SpiffiCluster.
_fail_node`), the session releases whatever it held, re-routes among
the title's surviving replica hosts, and resumes the stream from the
frame it had reached; a title with no surviving host is *lost*.  The
customer's viewing budget (``mean_view_duration_s``) is drawn once, at
first admission, and spans migrations — failing over does not grant
extra watching time.

Determinism: the generator mirrors the single-node stream discipline
(``select``/``arrivals``/``patience``/``views`` child streams plus one
per session) under the dedicated ``"cluster-workload"`` root, the
router draws nothing, and sessions are simulation processes on the one
shared environment — so the session→node assignment is a pure function
of the config (pinned by the router-determinism tests).
"""

from __future__ import annotations

import typing

from repro.media.access import make_access_model
from repro.sim.rng import RandomSource
from repro.terminal.terminal import Terminal
from repro.workload.generator import SessionStats
from repro.workload.popularity import RotatingPopularity
from repro.workload.spec import ArrivalSpec
from repro.workload.arrivals import make_arrival_process

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.system import SpiffiCluster


class ClusterSessionStats(SessionStats):
    """Single-node session counters plus the cluster-only outcomes."""

    def __init__(self, nodes: int) -> None:
        self._nodes = nodes
        super().__init__()

    def reset(self) -> None:
        super().reset()
        #: Admissions per member node (one increment per placement,
        #: failover re-placements included).
        self.routed = [0] * self._nodes
        #: Cross-node migrations after a host outage.
        self.failed_over = 0
        #: Sessions dropped because no surviving node hosts the title.
        self.lost = 0
        #: Placement-aware admission: arrivals redirected to another
        #: replica holder instead of balking on the routed node's queue.
        self.spilled = 0


class ClusterSessionGenerator:
    """Routes arriving sessions onto cluster members, with failover."""

    def __init__(
        self,
        env,
        cluster: "SpiffiCluster",
        spec: ArrivalSpec,
        rng: RandomSource,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.spec = spec
        self.process = make_arrival_process(spec)
        node_config = cluster.config.node
        self.popularity = RotatingPopularity(
            make_access_model(
                node_config.access_model,
                cluster.placement.catalog_size,
                node_config.zipf_skew,
            ),
            spec,
            rng.spawn("select"),
            rng,
        )
        self._arrival_rng = rng.spawn("arrivals")
        self._patience_rng = rng.spawn("patience")
        self._view_rng = rng.spawn("views")
        self._session_rng_root = rng
        self._sessions = 0
        self.stats = ClusterSessionStats(len(cluster.members))
        #: Full routing log: ``(session, title, node)`` per admission,
        #: in admission order.  Never reset — the determinism tests
        #: compare whole-run logs across fresh builds.
        self.assignments: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    # Arrival loop (identical thinning discipline to the node generator)
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.env.process(self._run(), name="cluster-session-generator")

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
    # One customer lifecycle, possibly spanning several nodes
    # ------------------------------------------------------------------
    def _session(self, session: int):
        env = self.env
        spec = self.spec
        cluster = self.cluster
        stats = self.stats
        arrived = env.now
        stats.offered += 1
        title = self.popularity.select(env.now)

        admitted = False
        view_deadline: float | None = None  # absolute; spans migrations
        start_frame = 0
        attempt = 0
        while True:
            node_id = cluster.router.route(title)
            if node_id is None:
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
            member = cluster.members[node_id]
            admission = member.admission
            down = cluster.down_event(node_id)
            sharing = member.sharing
            if sharing is not None and not sharing.batching:
                sharing = None
            # Front-door control traffic: every placement (failover
            # re-routes included) sends one routing message over the
            # interconnect before the member is engaged.
            yield from cluster.interconnect.transfer(
                cluster.config.node.control_message_bytes
            )

            # --- batched admission: ride the member's open window ------
            # Batches form *per member*: each node runs its own sharing
            # runtime, so only arrivals routed to the same replica
            # holder share a launch.  Failed-over sessions (attempt > 0)
            # resume immediately on a slot of their own instead of
            # waiting out another window.
            batch = None
            if sharing is not None and attempt == 0:
                local = cluster.placement.local_id(title, node_id)
                open_batch = sharing.joinable_batch(local)
                if open_batch is not None:
                    # Joining commits the customer: the window is a
                    # service-side startup delay (like §8.2 delays),
                    # not queue time, so only a host outage — never
                    # patience — pulls a joiner back out of it.
                    open_batch.join()
                    yield env.any_of([open_batch.launch, down])
                    if not open_batch.launch.triggered:
                        open_batch.withdraw()
                        sharing.stats.batch_withdrawn += 1
                        # Host died during the window: re-route.
                        attempt += 1
                        stats.failed_over += 1
                        continue
                    batch = open_batch

            # --- bounded wait queue on the routed member ---------------
            if batch is None and (
                attempt == 0
                and admission.would_queue
                and admission.queue_length >= spec.queue_limit
            ):
                # Placement-aware admission: before giving up on one
                # member's full queue, ask for another replica holder
                # with room (None whenever the feature is disabled —
                # the historical balk is then taken verbatim).
                spill = cluster.spill_target(title, node_id, spec.queue_limit)
                if spill is None:
                    stats.balked += 1
                    return None
                stats.spilled += 1
                node_id = spill
                member = cluster.members[node_id]
                admission = member.admission
                down = cluster.down_event(node_id)
                # Sharing runtimes are per member: re-bind to the spill
                # target's (a leader opens its window over there).
                sharing = member.sharing
                if sharing is not None and not sharing.batching:
                    sharing = None
                # The redirect is one more front-door control message.
                yield from cluster.interconnect.transfer(
                    cluster.config.node.control_message_bytes
                )
                if admission.would_queue and (
                    admission.queue_length >= spec.queue_limit
                ):
                    stats.balked += 1  # the room filled while we hopped
                    return None
            if batch is None:
                slot = admission.request_slot()
                if not slot.triggered:
                    waits = [slot, down]
                    if not admitted and spec.mean_patience_s > 0:
                        patience = self._patience_rng.exponential(spec.mean_patience_s)
                        waits.append(env.timeout(patience))
                    yield env.any_of(waits)
                    if not slot.triggered:
                        admission.cancel(slot)
                        if down.triggered:
                            attempt += 1
                            stats.failed_over += 1
                            continue  # host died while we queued: re-route
                        stats.reneged += 1
                        return None
                    if down.triggered:
                        # Admitted a slot on a node that just died (e.g. a
                        # release cascaded to us post-outage): hand it back
                        # and take the stream elsewhere.
                        admission.release_slot()
                        attempt += 1
                        stats.failed_over += 1
                        continue
            if not admitted:
                admitted = True
                stats.admitted += 1
                if spec.mean_view_duration_s > 0:
                    view_deadline = env.now + self._view_rng.exponential(
                        spec.mean_view_duration_s
                    )
            stats.routed[node_id] += 1
            self.assignments.append((session, title, node_id))

            # --- launch on the member: batch window, then a terminal
            local = cluster.placement.local_id(title, node_id)
            if batch is None and sharing is not None and attempt == 0:
                # Admitted leader: open the member's launch window; the
                # batch takes over this session's slot (released by the
                # last member to depart).
                batch = sharing.open_batch(local, member.release_admission)
                yield batch.launch
            if view_deadline is not None and env.now >= view_deadline:
                # The whole budget went to waiting; the customer leaves.
                if batch is not None:
                    batch.depart()
                else:
                    admission.release_slot()
                stats.abandoned += 1
                return None
            terminal = self._spawn_terminal(session, attempt, member)
            # First placement measures startup from arrival (queue time
            # counts against the SLO); a migration measures the
            # re-buffering from the moment of failover.
            terminal.startup_anchor = arrived if attempt == 0 else env.now
            video = member.library[local]
            frame = min(start_frame, video.frame_count - 1)
            playback = env.process(
                terminal.play(local, frame), name=f"session-{session}-play"
            )

            # --- stream until done, out of budget, or host death -------
            waits = [playback, down]
            if view_deadline is not None:
                waits.append(env.timeout(view_deadline - env.now))
            yield env.any_of(waits)
            if playback.triggered:
                stats.completed += 1
                if batch is not None:
                    batch.depart()
                else:
                    admission.release_slot()
                return None
            if view_deadline is not None and env.now >= view_deadline:
                terminal.abandon()
                if batch is not None:
                    batch.depart()
                else:
                    admission.release_slot()
                stats.abandoned += 1
                return None
            # Host outage mid-stream: resume elsewhere from this frame.
            start_frame = terminal._next_frame
            terminal.abandon()
            if batch is not None:
                batch.depart()
            else:
                admission.release_slot()
            attempt += 1
            stats.failed_over += 1

    def _spawn_terminal(self, session: int, attempt: int, member) -> Terminal:
        config = self.cluster.config.node
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
        # Startup QoS is a cluster-wide account: one monitor sees every
        # start regardless of which member served it.
        terminal.qos = self.cluster.qos
        return terminal

    def reset_stats(self) -> None:
        self.stats.reset()
