"""Streaming QoS accounting: startup-latency percentiles and SLOs.

A :class:`QosMonitor` is attached to every terminal (closed or
session-spawned) by system assembly; terminals feed it one startup
latency per playback start.  It keeps P² quantile estimators
(:class:`repro.sim.stats.Quantile`) for p50/p95/p99 — O(1) memory, no
sample storage — plus the fraction of starts inside the configured SLO.
Recording touches no RNG and schedules no events, so attaching the
monitor leaves runs bit-identical.
"""

from __future__ import annotations

from repro.sim.stats import Quantile


class QosMonitor:
    """Percentiles and SLO attainment of playback startup latency."""

    def __init__(self, startup_slo_s: float) -> None:
        if startup_slo_s <= 0:
            raise ValueError(
                f"startup_slo_s must be positive, got {startup_slo_s}"
            )
        self.startup_slo_s = startup_slo_s
        self.reset_stats()

    def reset_stats(self) -> None:
        self.starts = 0
        self.within_slo = 0
        self._quantiles = {
            0.5: Quantile(0.5),
            0.95: Quantile(0.95),
            0.99: Quantile(0.99),
        }

    def record_startup(self, latency_s: float) -> None:
        self.starts += 1
        if latency_s <= self.startup_slo_s:
            self.within_slo += 1
        for quantile in self._quantiles.values():
            quantile.record(latency_s)

    def startup_quantile(self, p: float) -> float:
        """The current p-quantile estimate (0.0 before any start)."""
        return self._quantiles[p].value

    @property
    def slo_attainment(self) -> float:
        """Fraction of starts within the SLO (0.0 with no starts, so a
        run that never started a stream reads as zeros, not perfection)."""
        return self.within_slo / self.starts if self.starts else 0.0
