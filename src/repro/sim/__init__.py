"""Process-oriented discrete-event simulation kernel.

A from-scratch substitute for the CSIM/C++ simulation language used by
the original SPIFFI simulator: simulated activities are Python
generators that yield :class:`Event` objects to an :class:`Environment`.
"""

from repro.sim.environment import Environment, NORMAL, URGENT
from repro.sim.errors import EventLifecycleError, Interrupt, SimError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Gate, PriorityStore, Resource, Store
from repro.sim.rng import DiscreteSampler, RandomSource, zipf_weights
from repro.sim.stats import BusyTracker, Quantile, Tally, TimeWeighted, WindowedRate

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyTracker",
    "DiscreteSampler",
    "Environment",
    "Event",
    "EventLifecycleError",
    "Gate",
    "Interrupt",
    "NORMAL",
    "PriorityStore",
    "Process",
    "Quantile",
    "RandomSource",
    "Resource",
    "SimError",
    "StopSimulation",
    "Store",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "URGENT",
    "WindowedRate",
    "zipf_weights",
]
