"""The interconnection network (paper §6.2).

"The network is modeled as a bus with unlimited aggregate bandwidth and
constant latency regardless of which terminal and node are
communicating" — so there is no contention resource, only a wire delay
of ``5 µs + 0.04 µs/byte`` and per-message CPU costs at the endpoints
(paid by the callers, since only server nodes have modelled CPUs).

The bus records every byte it carries in per-window totals so the
benchmark for Figure 18 (peak aggregate network bandwidth) can read the
peak off directly.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sim.environment import Environment
from repro.sim.events import Timeout
from repro.sim.stats import WindowedRate


@dataclasses.dataclass(frozen=True)
class NetworkParameters:
    fixed_delay_s: float = 5e-6
    per_byte_delay_s: float = 0.04e-6
    #: Window used for peak-bandwidth accounting.
    rate_window_s: float = 1.0

    def transit_time(self, size_bytes: int) -> float:
        if size_bytes < 0:
            raise ValueError(f"message size must be >= 0, got {size_bytes}")
        return self.fixed_delay_s + self.per_byte_delay_s * size_bytes


class NetworkBus:
    def __init__(self, env: Environment, params: NetworkParameters) -> None:
        self.env = env
        self.params = params
        self.traffic = WindowedRate(params.rate_window_s, env.now)
        self.messages = 0
        #: Bytes carried per traffic class (only tagged transfers are
        #: accounted; untagged foreground traffic stays out).
        self.kind_bytes: dict[str, int] = {}
        # Transit seconds by message size (see transit_time).
        self._transit: dict[int, float] = {}

    def transit_time(self, size_bytes: int) -> float:
        """Wire delay of a *size_bytes* message.

        ``params.transit_time`` is evaluated once per size, so every
        message of that size gets the same float; a negative size
        raises on every call (it is never stored).
        """
        transit = self._transit.get(size_bytes)
        if transit is None:
            transit = self._transit[size_bytes] = self.params.transit_time(size_bytes)
        return transit

    def transfer(self, size_bytes: int, kind: str | None = None) -> typing.Generator:
        """Generator (``yield from``): carry a message across the wire.

        *kind* tags the bytes into :attr:`kind_bytes` (e.g. the cluster
        charges ``"rebuild"`` and ``"resync"`` re-replication traffic),
        so background classes are separable from foreground totals.
        """
        self.messages += 1
        if kind is not None:
            self.kind_bytes[kind] = self.kind_bytes.get(kind, 0) + size_bytes
        self.traffic.record(self.env.now, size_bytes)
        yield Timeout(self.env, self.transit_time(size_bytes))
        return None

    @property
    def peak_bandwidth(self) -> float:
        """Largest bytes/second seen in any accounting window."""
        return self.traffic.peak_rate

    def mean_bandwidth(self) -> float:
        return self.traffic.mean_rate(self.env.now)

    def reset_stats(self) -> None:
        self.traffic.reset(self.env.now)
        self.messages = 0
        self.kind_bytes = {}
