"""Open-system workload configuration.

``ArrivalSpec`` follows the declarative-spec idiom of
:class:`repro.faults.spec.FaultSpec`: an immutable value object on
:class:`repro.core.config.SpiffiConfig` from which the whole open-system
machinery — the arrival process, the session generator, the bounded
wait queue, the QoS accounting — is derived deterministically.

The default spec is **closed**: no session generator is created, the
fixed ``terminals`` population of the paper's methodology is built
exactly as before, no extra random draws happen, and a run is
bit-identical to one on a build without the workload subsystem at all
(pinned by a golden test, like the fault and replication specs).
"""

from __future__ import annotations

import dataclasses

from repro.workload.arrivals import ARRIVAL_PROCESSES, CLOSED


@dataclasses.dataclass(frozen=True)
class ArrivalSpec:
    """How sessions arrive, wait, watch, and leave.

    With ``process != "closed"`` the simulation becomes *open*: instead
    of ``config.terminals`` looping videos forever, a
    :class:`~repro.workload.generator.SessionGenerator` draws session
    arrivals from the named process (registry-backed; see
    :func:`repro.workload.register_arrival_process`) at ``rate_per_s``
    and spawns a fresh terminal per session.  Each session:

    * *balks* (is rejected on the spot) if the admission wait queue
      already holds ``queue_limit`` customers;
    * otherwise requests an admission slot and — if made to wait —
      *reneges* after an exponential patience with mean
      ``mean_patience_s`` (0 = infinite patience);
    * once admitted, picks a title from the configured access model
      (the same selection closed terminals use), streams it, and departs after an exponential
      viewing time with mean ``mean_view_duration_s`` (0 = watches to
      the end) — the session-churn knob;
    * counts toward the startup-latency SLO: the stream must begin
      displaying within ``startup_slo_s`` of the session's *arrival*
      (wait-queue time included).

    All stochastic choices draw from dedicated child streams of the
    ``"workload"`` RNG stream, so enabling the workload layer perturbs
    nothing else and the closed default consumes no randomness at all.
    """

    #: The hotset-rotation knobs were retired; their old defaults stay
    #: in the canonical form so every existing config digest and
    #: run-cache key stays valid.
    schema_constants = {"hotset_size": 0, "hotset_rotation_s": 0.0}

    process: str = CLOSED
    #: Mean session arrival rate (sessions/second) for open processes.
    rate_per_s: float = 0.0

    # --- session shape --------------------------------------------------
    #: Mean exponential viewing time before the customer departs;
    #: 0 watches every video to the end.
    mean_view_duration_s: float = 0.0

    # --- wait queue (in front of server admission) ----------------------
    #: Customers the admission wait queue holds before new arrivals balk.
    queue_limit: int = 64
    #: Mean exponential patience while queued; 0 = never renege.
    mean_patience_s: float = 0.0

    # --- arrival-process parameters -------------------------------------
    #: ``diurnal``: sinusoid period (a compressed "day").
    diurnal_period_s: float = 600.0
    #: ``diurnal``: modulation depth in [0, 1].
    diurnal_amplitude: float = 0.5
    #: ``flash``: burst window start, length, and rate multiplier.
    flash_at_s: float = 0.0
    flash_duration_s: float = 60.0
    flash_multiplier: float = 4.0

    # --- QoS ------------------------------------------------------------
    #: Startup-latency SLO (arrival to first displayed frame).
    startup_slo_s: float = 10.0

    def __post_init__(self) -> None:
        ARRIVAL_PROCESSES.lookup(self.process)
        if self.enabled and self.rate_per_s <= 0:
            raise ValueError(
                f"arrival process {self.process!r} needs rate_per_s > 0, "
                f"got {self.rate_per_s}"
            )
        if not self.enabled and self.rate_per_s != 0.0:
            raise ValueError(
                f"closed workload cannot carry an arrival rate "
                f"({self.rate_per_s})"
            )
        for label, value in (
            ("mean_view_duration_s", self.mean_view_duration_s),
            ("mean_patience_s", self.mean_patience_s),
        ):
            if value < 0:
                raise ValueError(f"{label} must be >= 0, got {value}")
        if self.queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.diurnal_period_s <= 0:
            raise ValueError(
                f"diurnal_period_s must be positive, got {self.diurnal_period_s}"
            )
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1], "
                f"got {self.diurnal_amplitude}"
            )
        if self.flash_at_s < 0:
            raise ValueError(f"flash_at_s must be >= 0, got {self.flash_at_s}")
        if self.flash_duration_s <= 0:
            raise ValueError(
                f"flash_duration_s must be positive, got {self.flash_duration_s}"
            )
        if self.flash_multiplier < 1.0:
            raise ValueError(
                f"flash_multiplier must be >= 1, got {self.flash_multiplier}"
            )
        if self.startup_slo_s <= 0:
            raise ValueError(
                f"startup_slo_s must be positive, got {self.startup_slo_s}"
            )

    @property
    def enabled(self) -> bool:
        """Whether this spec replaces the closed terminal population."""
        return self.process != CLOSED

    def label(self) -> str:
        """Human-readable summary used in benchmark tables."""
        if not self.enabled:
            return CLOSED
        return f"{self.process} {self.rate_per_s * 60.0:g}/min"
