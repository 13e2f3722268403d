"""Session arrival processes, registry-backed.

An arrival process is an *intensity function*: it reports the
instantaneous session arrival rate at any simulated time, plus the peak
rate it can ever reach.  The :class:`~repro.workload.generator.
SessionGenerator` samples arrivals from it by thinning (Lewis &
Shedler): candidate arrivals are drawn as a Poisson process at the peak
rate and each is accepted with probability ``rate(t) / peak``, so any
bounded time-varying profile is sampled exactly with one exponential
draw (plus, for non-constant profiles, one uniform) per candidate.

Third-party processes plug in without touching core code::

    from repro.workload import register_arrival_process

    register_arrival_process("ramp", lambda spec: RampArrivals(spec))
    config = SpiffiConfig(workload=ArrivalSpec("ramp", rate_per_s=1.0))

``closed`` is the *absence* of an arrival process (the paper's
fixed-terminal-population workload): it is registered first, with no
factory, so specs accept it and no plugin can take its name.
"""

from __future__ import annotations

import math
import typing

from repro.registry import Registry

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.workload.spec import ArrivalSpec

#: The spec value meaning "no arrival process" (the paper's workload).
CLOSED = "closed"


class ArrivalProcess:
    """Base class: a deterministic arrival-intensity profile."""

    def __init__(self, spec: "ArrivalSpec") -> None:
        self.spec = spec

    @property
    def peak_rate(self) -> float:
        """Least upper bound of :meth:`rate_at` (thinning envelope)."""
        raise NotImplementedError

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (sessions/s) at time *t*."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_per_s``."""

    @property
    def peak_rate(self) -> float:
        return self.spec.rate_per_s

    def rate_at(self, t: float) -> float:
        return self.spec.rate_per_s


class DiurnalArrivals(ArrivalProcess):
    """Sinusoid-modulated Poisson arrivals (a compressed daily cycle).

    ``rate(t) = rate_per_s * (1 + amplitude * sin(2*pi*t / period))``,
    so the *mean* rate over a whole period is still ``rate_per_s``.
    """

    @property
    def peak_rate(self) -> float:
        return self.spec.rate_per_s * (1.0 + self.spec.diurnal_amplitude)

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * t / self.spec.diurnal_period_s
        return self.spec.rate_per_s * (
            1.0 + self.spec.diurnal_amplitude * math.sin(phase)
        )


class FlashArrivals(ArrivalProcess):
    """Baseline Poisson plus a new-release burst window.

    The rate is ``rate_per_s`` except during ``[flash_at_s, flash_at_s +
    flash_duration_s)``, where it is multiplied by ``flash_multiplier``
    — the premiere-night crowd.
    """

    @property
    def peak_rate(self) -> float:
        return self.spec.rate_per_s * self.spec.flash_multiplier

    def rate_at(self, t: float) -> float:
        spec = self.spec
        if spec.flash_at_s <= t < spec.flash_at_s + spec.flash_duration_s:
            return spec.rate_per_s * spec.flash_multiplier
        return spec.rate_per_s


#: name -> ``factory(spec) -> ArrivalProcess``; ``closed`` has none.
ARRIVAL_PROCESSES = Registry("arrival process")
ARRIVAL_PROCESSES.register(CLOSED, None)


def register_arrival_process(
    name: str, factory: typing.Callable[["ArrivalSpec"], ArrivalProcess]
) -> None:
    """Make *name* selectable via ``ArrivalSpec(name)``."""
    if name == CLOSED:
        raise ValueError(
            f"{CLOSED!r} is the built-in closed-system workload and "
            f"cannot be registered as an arrival process"
        )
    ARRIVAL_PROCESSES.register(name, factory)


def arrival_process_names() -> tuple[str, ...]:
    """Every registered open-system process name (registration order)."""
    return ARRIVAL_PROCESSES.names()[1:]


def make_arrival_process(spec: "ArrivalSpec") -> ArrivalProcess:
    """Build the registered arrival process the spec names."""
    factory = ARRIVAL_PROCESSES.lookup(spec.process)
    if factory is None:
        raise ValueError(
            f"unknown arrival process {CLOSED!r}; choose from "
            f"{ARRIVAL_PROCESSES.names()}"
        )
    return factory(spec)


register_arrival_process("poisson", PoissonArrivals)
register_arrival_process("diurnal", DiurnalArrivals)
register_arrival_process("flash", FlashArrivals)
