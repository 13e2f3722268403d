"""A node CPU: FCFS-scheduled, 40 MIPS (Table 1)."""

from __future__ import annotations

import typing

from repro.cpu.costs import CpuParameters
from repro.sim.environment import Environment
from repro.sim.events import Timeout
from repro.sim.resources import Resource


class Processor:
    """One node's CPU, executing bursts FCFS (Table 1: "CPU Scheduling
    FCFS")."""

    def __init__(self, env: Environment, params: CpuParameters, node: int) -> None:
        self.env = env
        self.params = params
        self.node = node
        self._resource = Resource(env, capacity=1, name=f"cpu-{node}")
        # Burst seconds by instruction count: ``params.seconds`` is
        # evaluated once per count, so every burst gets the same float.
        # Invalid counts raise and are never stored.
        self._seconds: dict[int, float] = {}

    def execute(self, instructions: int) -> typing.Generator:
        """Generator (``yield from``): run a burst of instructions."""
        request = self._resource.request()
        yield request
        try:
            seconds = self._seconds.get(instructions)
            if seconds is None:
                seconds = self._seconds[instructions] = self.params.seconds(instructions)
            yield Timeout(self.env, seconds)
        finally:
            self._resource.release(request)
        return None

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    def utilization(self) -> float:
        return self._resource.utilization()

    def reset_stats(self) -> None:
        self._resource.reset_stats()
