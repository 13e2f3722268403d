"""The front door: the base of a standalone server and of a cluster.

A :class:`~repro.core.node.SpiffiNode` is a one-member door (its own
sole member, on the defaults below); a
:class:`~repro.cluster.system.SpiffiCluster` overrides what N members
behind a router change.  A registered component has ``reset_stats()``
and may have a ``trace`` slot: :meth:`FrontDoor.reset_stats` and
:meth:`FrontDoor.enable_tracing` are one loop over the registry, the
members' included, so nothing is zeroed or traced by a hand-kept list.
"""

from __future__ import annotations

from repro.core.metrics import RunMetrics, collect_metrics
from repro.media.access import make_access_model
from repro.proxy.runtime import ProxyRuntime, ProxyView
from repro.telemetry.trace import TraceRecorder
from repro.workload.generator import SessionGenerator


class FrontDoor:
    """The session door, edge proxy, component registry and run
    sequence shared by every system."""

    #: The open-workload session generator, if the config has one.
    workload: SessionGenerator | None = None
    #: The edge prefix cache, if the config enables one.
    proxy_runtime: ProxyRuntime | None = None

    def __init__(self, config, env) -> None:
        self.config = config
        self.env = env
        self._components: list = []
        self._started = False

    # --- the session door: one member that never fails -----------------
    @property
    def select_on_arrival(self) -> bool:
        """Whether a session draws its title on arrival (a batching one
        must, to find an open window) rather than after admission."""
        return self.members[0].batcher is not None

    def route(self, title: int | None) -> int | None:
        return 0

    def primary(self, title: int) -> int:
        return 0

    def local_id(self, title: int | None, node: int) -> int | None:
        return title

    def spill_target(self, title: int | None, node: int, limit: int) -> int | None:
        return None

    def down_event(self, node: int):
        return None

    def place(self):
        return ()  # no interconnect: placing costs nothing

    def _build_workload(self, rng) -> None:
        """Build (and register) the session generator an open workload
        drives through this door, drawing from *rng*."""
        if self.config.workload.enabled:
            self.workload = SessionGenerator(self.env, self, self.config.workload, rng)
            self.register(self.workload)

    def _build_proxy(self, forward_bus, to_global=(None,)) -> None:
        """The edge prefix cache over the catalog: each title's schedule
        from its primary copy, weights from the popularity model
        sessions select with, misses forwarded over *forward_bus*, and
        one :class:`ProxyView` per member translating its local ids
        through *to_global* (None: identity).  Draws no randomness and
        schedules no events."""
        base = self.members[0].config
        schedules = []
        for title in range(self.catalog_size):
            node = self.primary(title)
            video = self.members[node].library[self.local_id(title, node)]
            schedules.append(video.schedule(base.stripe_bytes))
        self.proxy_runtime = ProxyRuntime(
            self.env,
            self.config.proxy,
            schedules=schedules,
            weights=make_access_model(
                base.access_model, self.catalog_size, base.zipf_skew
            ).weights(),
            block_size=base.stripe_bytes,
            forward_bus=forward_bus,
            control_message_bytes=base.control_message_bytes,
        )
        for member, titles in zip(self.members, to_global):
            member.proxy = ProxyView(self.proxy_runtime, member, titles)
        self.register(self.proxy_runtime)

    # --- the component registry ----------------------------------------
    def register(self, *components) -> None:
        """Add instrumented components; None (a subsystem the config
        leaves out) is skipped."""
        self._components.extend(c for c in components if c is not None)

    def components(self) -> list:
        """Every registered component, the members' included, each once."""
        doors = (self, *self.members)
        return list({id(c): c for door in doors for c in door._components}.values())

    def reset_stats(self) -> None:
        """Begin the measurement window: zero every statistic."""
        for component in self.components():
            component.reset_stats()

    def enable_tracing(self, capacity: int = 100_000) -> TraceRecorder:
        """Attach one recorder to every traceable component, the
        members' included; returns it for inspection after the run."""
        traceable = [c for c in self.components() if hasattr(c, "trace")]
        if not traceable:
            raise ValueError(f"{type(self).__name__} has no traceable component")
        recorder = TraceRecorder(self.env, capacity=capacity)
        for component in traceable:
            component.trace = recorder
        return recorder

    # --- execution: the paper's methodology (§7) -----------------------
    def start(self) -> None:
        """Launch the load, once."""
        if self._started:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._started = True
        self._launch()
        if self.workload is not None:
            self.workload.start()

    def _launch(self) -> None:
        """Start what runs ahead of the arrival process."""
        raise NotImplementedError

    def run(self) -> RunMetrics:
        """Warm up, reset, measure, and collect."""
        config = self.config
        self.start()
        self.env.run(until=config.warmup_s)
        self.reset_stats()
        self.env.run(until=config.warmup_s + config.measure_s)
        return self.collect_metrics(config.measure_s)

    def collect_metrics(self, measure_s: float) -> RunMetrics:
        return collect_metrics(self, measure_s)
