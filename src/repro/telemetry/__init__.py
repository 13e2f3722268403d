"""Observation layer: event tracing and per-run execution accounting."""

from repro.telemetry.runstats import RunStopwatch
from repro.telemetry.trace import TraceEvent, TraceRecorder

__all__ = [
    "RunStopwatch",
    "TraceEvent",
    "TraceRecorder",
]
