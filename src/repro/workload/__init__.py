"""Open-system workload layer: arrival-driven load, session churn,
bounded admission queueing, and QoS accounting.

The subsystem is inert unless :class:`ArrivalSpec` on the run config
names an arrival process; the default (``closed``) spec builds the
paper's fixed terminal population and leaves every run bit-identical to
a build without this package.
"""

from repro.workload.arrivals import (
    CLOSED,
    ArrivalProcess,
    DiurnalArrivals,
    FlashArrivals,
    PoissonArrivals,
    arrival_process_names,
    make_arrival_process,
    register_arrival_process,
)
from repro.workload.generator import SessionGenerator, SessionStats
from repro.workload.qos import QosMonitor
from repro.workload.saturation import (
    RateProbe,
    SaturationResult,
    SloPolicy,
    find_max_rate,
)
from repro.workload.spec import ArrivalSpec

__all__ = [
    "ArrivalProcess",
    "ArrivalSpec",
    "CLOSED",
    "DiurnalArrivals",
    "FlashArrivals",
    "PoissonArrivals",
    "QosMonitor",
    "RateProbe",
    "SaturationResult",
    "SessionGenerator",
    "SessionStats",
    "SloPolicy",
    "arrival_process_names",
    "find_max_rate",
    "make_arrival_process",
    "register_arrival_process",
]
