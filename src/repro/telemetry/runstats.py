"""Per-run execution accounting: wall time and simulator event counts.

The paper reports up to 10 hours of simulation per 64-disk
configuration; our reproduction tracks how long each run really takes
(host wall time) and how much work the discrete-event kernel did
(events processed), so experiment drivers can report throughput and the
parallel runner can show per-run progress.
"""

from __future__ import annotations

import dataclasses
import gc
import time

from repro.core.metrics import RunMetrics
from repro.sim.environment import Environment


class RunStopwatch:
    """Context manager measuring one simulation's execution.

    Captures host wall time across the ``with`` block and the number of
    simulator events the :class:`Environment` processed inside it.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.wall_time_s = 0.0
        self.events_processed = 0

    def __enter__(self) -> "RunStopwatch":
        self._events_at_start = self.env.events_processed
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_time_s = time.perf_counter() - self._started
        self.events_processed = self.env.events_processed - self._events_at_start

    @property
    def events_per_second(self) -> float:
        """Kernel throughput over the measured block (0.0 before exit)."""
        return (
            self.events_processed / self.wall_time_s if self.wall_time_s > 0 else 0.0
        )

    def stamp(self, metrics: RunMetrics) -> RunMetrics:
        """The metrics with this stopwatch's accounting filled in."""
        return dataclasses.replace(
            metrics,
            wall_time_s=self.wall_time_s,
            events_processed=self.events_processed,
        )


def execute_timed(system_class: type, config) -> RunMetrics:
    """Build ``system_class(config)``, run it, and return its metrics
    stamped with execution accounting (wall time and simulator events
    processed, covering construction plus the run) so sweeps can report
    per-run cost.  The registered executor behind ``run(SpiffiConfig)``
    and ``run(ClusterConfig)``.

    A running system makes no cyclic garbage, so the automatic
    collector is off while it is built and run.  A finished system is a
    reference cycle only the collector frees, so it is collected once,
    untimed, before the caller's setting is restored: one live system
    per process (DESIGN.md), and no automatic collection later walks it.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    try:
        system = system_class(config)
        with RunStopwatch(system.env) as watch:
            metrics = system.run()
        watch.wall_time_s = time.perf_counter() - started
        system = watch.env = None
        return watch.stamp(metrics)
    finally:
        gc.collect()
        if collecting:
            gc.enable()
