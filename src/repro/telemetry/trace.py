"""Structured event tracing for simulation debugging and analysis.

A :class:`TraceRecorder` collects typed, timestamped events from
anywhere in the simulator (bounded, so hour-long simulations cannot
exhaust memory), supports filtering at record time, and summarises by
event kind.  Nothing in the simulator *requires* tracing — it is an
observation layer.
"""

from __future__ import annotations

import typing
from collections import Counter, deque

from repro.sim.environment import Environment

#: Event kinds emitted by the fault-injection subsystem.
FAULT_START = "fault.start"
FAULT_END = "fault.end"
FAULT_RETRY = "fault.retry"

#: Event kinds emitted by the replication & recovery subsystem.
FAILOVER_READ = "failover.read"
HEALTH_CHANGE = "health.change"
REBUILD_START = "rebuild.start"
REBUILD_BLOCK = "rebuild.block"
REBUILD_END = "rebuild.end"

#: Event kinds emitted by the open-system workload subsystem.
SESSION_ARRIVE = "session.arrive"
SESSION_ADMIT = "session.admit"
SESSION_BALK = "session.balk"
SESSION_RENEGE = "session.renege"
SESSION_COMPLETE = "session.complete"
SESSION_ABANDON = "session.abandon"
QUEUE_ENTER = "queue.enter"
QUEUE_LEAVE = "queue.leave"

#: Event kinds emitted by the proxy/edge prefix-cache tier.
PROXY_HIT = "proxy.hit"
PROXY_MISS = "proxy.miss"
PROXY_FILL = "proxy.fill"

#: Event kinds emitted by the stream-sharing subsystem.
BATCH_OPEN = "batch.open"
BATCH_JOIN = "batch.join"
BATCH_LAUNCH = "batch.launch"
CHAIN_FORM = "chain.form"
CHAIN_BREAK = "chain.break"

#: Event kinds emitted by the cluster self-healing layer.
CLUSTER_REBUILD_START = "cluster.rebuild.start"
CLUSTER_REBUILD_TITLE = "cluster.rebuild.title"
CLUSTER_REBUILD_END = "cluster.rebuild.end"
CLUSTER_REJOIN_START = "cluster.rejoin.start"
CLUSTER_REJOIN_END = "cluster.rejoin.end"


class TraceEvent(typing.NamedTuple):
    time: float
    kind: str
    fields: dict


class TraceRecorder:
    __slots__ = ("env", "capacity", "kinds", "enabled", "_events", "counts", "dropped")

    def __init__(
        self,
        env: Environment,
        capacity: int = 100_000,
        kinds: typing.Collection[str] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: When set, only these event kinds are recorded.
        self.kinds = set(kinds) if kinds is not None else None
        #: Master switch: when False, :meth:`record` returns immediately.
        #: Emitting subsystems additionally skip building the field dict
        #: when no recorder is attached at all, so a simulation that
        #: never enables tracing pays ~zero per event.
        self.enabled = True
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.counts: Counter = Counter()
        self.dropped = 0

    def record(self, kind: str, **fields) -> None:
        """Record one event (cheap no-op when disabled or filtered)."""
        if not self.enabled:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        self.counts[kind] += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(TraceEvent(self.env.now, kind, fields))

    def pause(self) -> None:
        """Stop recording (e.g. outside the measurement window)."""
        self.enabled = False

    def resume(self) -> None:
        """Start recording again after :meth:`pause`."""
        self.enabled = True

    def __len__(self) -> int:
        return len(self._events)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Recorded events, optionally restricted to one kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def between(self, start: float, end: float) -> list[TraceEvent]:
        """Events with start <= time < end."""
        return [event for event in self._events if start <= event.time < end]

    def summary(self) -> dict[str, int]:
        return dict(self.counts)

    def clear(self) -> None:
        self._events.clear()
        self.counts.clear()
        self.dropped = 0
