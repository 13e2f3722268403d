"""Statistics collectors for simulation outputs.

All collectors support ``reset(now)`` so measurement can begin after a
warmup period, matching the paper's methodology ("once all the terminals
have begun watching videos, the simulator begins collecting performance
and utilization data").
"""

from __future__ import annotations

import math


class Tally:
    """Streaming count/mean/min/max/variance of observed samples."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.reset()

    def reset(self, now: float | None = None) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tally(n={self.count}, mean={self.mean:.4g})"


class Quantile:
    """Streaming quantile estimate via the P² algorithm.

    Jain & Chlamtac's piecewise-parabolic estimator (CACM 1985)
    maintains five markers whose heights converge on the requested
    quantile without storing samples — O(1) memory per percentile, so a
    run can track p50/p95/p99 startup latency over millions of sessions.
    Exact (order-statistic) for the first five observations, then
    approximate; accuracy is typically well under a percent of the
    distribution's scale for unimodal data.
    """

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.reset()

    def reset(self, now: float | None = None) -> None:
        self.count = 0
        #: Marker heights (first five observations until primed).
        self._q: list[float] = []
        #: Actual marker positions (1-based ranks).
        self._n = [1, 2, 3, 4, 5]
        #: Desired marker positions and their per-sample increments.
        p = self.p
        self._np = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def record(self, value: float) -> None:
        self.count += 1
        q = self._q
        if self.count <= 5:
            q.append(value)
            q.sort()
            return
        n = self._n
        np_ = self._np
        # Locate the cell holding the new observation, adjusting the
        # extreme markers if it falls outside the current range.
        if value < q[0]:
            q[0] = value
            k = 0
        elif value >= q[4]:
            q[4] = value
            k = 3
        else:
            k = 0
            while value >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            np_[i] += self._dn[i]
        # Nudge the three interior markers toward their desired
        # positions, parabolic where the neighbour spacing allows it.
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1) or (d <= -1.0 and n[i - 1] - n[i] < -1):
                sign = 1 if d >= 1.0 else -1
                candidate = self._parabolic(i, sign)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, sign)
                q[i] = candidate
                n[i] += sign

    def _parabolic(self, i: int, sign: int) -> float:
        q, n = self._q, self._n
        return q[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, sign: int) -> float:
        q, n = self._q, self._n
        return q[i] + sign * (q[i + sign] - q[i]) / (n[i + sign] - n[i])

    @property
    def value(self) -> float:
        """The current quantile estimate (0.0 before any sample)."""
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            # Exact nearest-rank order statistic while unprimed.
            rank = max(1, math.ceil(self.p * self.count))
            return self._q[rank - 1]
        return self._q[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Quantile(p={self.p}, n={self.count}, value={self.value:.4g})"


class TimeWeighted:
    """Time-weighted average of a piecewise-constant quantity.

    Feed it level changes via :meth:`update`; it integrates the level
    over time.  Used for queue lengths and utilizations.
    """

    def __init__(self, now: float = 0.0, level: float = 0.0) -> None:
        self._level = level
        self._last = now
        self._area = 0.0
        self._start = now
        self.maximum = level

    def update(self, now: float, level: float) -> None:
        self._area += self._level * (now - self._last)
        self._last = now
        self._level = level
        if level > self.maximum:
            self.maximum = level

    def add(self, now: float, delta: float) -> None:
        self.update(now, self._level + delta)

    @property
    def level(self) -> float:
        return self._level

    def mean(self, now: float) -> float:
        area = self._area + self._level * (now - self._last)
        elapsed = now - self._start
        return area / elapsed if elapsed > 0 else self._level

    def reset(self, now: float) -> None:
        self._area = 0.0
        self._last = now
        self._start = now
        self.maximum = self._level


class BusyTracker:
    """Tracks the busy fraction of a device (disk, CPU, wire)."""

    def __init__(self, now: float = 0.0) -> None:
        self._busy_depth = 0
        self._busy_since: float | None = None
        self._busy_time = 0.0
        self._start = now

    def begin(self, now: float) -> None:
        if self._busy_depth == 0:
            self._busy_since = now
        self._busy_depth += 1

    def end(self, now: float) -> None:
        self._busy_depth -= 1
        if self._busy_depth < 0:
            raise ValueError("BusyTracker.end() without matching begin()")
        if self._busy_depth == 0:
            self._busy_time += now - self._busy_since
            self._busy_since = None

    def busy_time(self, now: float) -> float:
        busy = self._busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return busy

    def utilization(self, now: float) -> float:
        elapsed = now - self._start
        return self.busy_time(now) / elapsed if elapsed > 0 else 0.0

    def reset(self, now: float) -> None:
        self._busy_time = 0.0
        self._start = now
        if self._busy_since is not None:
            self._busy_since = now


class WindowedRate:
    """Peak and mean rate of a byte/event stream over fixed windows.

    Used for the paper's "peak aggregate network bandwidth" (Figure 18):
    bytes are recorded as they cross the wire; the peak is the largest
    per-window total divided by the window length.
    """

    def __init__(self, window: float = 1.0, now: float = 0.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._start = now
        self._current_index = 0
        self._current_total = 0.0
        self._peak_total = 0.0
        self._grand_total = 0.0

    def record(self, now: float, amount: float) -> None:
        index = int((now - self._start) / self.window)
        if index != self._current_index:
            if self._current_total > self._peak_total:
                self._peak_total = self._current_total
            self._current_index = index
            self._current_total = 0.0
        self._current_total += amount
        self._grand_total += amount

    @property
    def peak_rate(self) -> float:
        total = max(self._peak_total, self._current_total)
        return total / self.window

    def mean_rate(self, now: float) -> float:
        elapsed = now - self._start
        return self._grand_total / elapsed if elapsed > 0 else 0.0

    @property
    def total(self) -> float:
        return self._grand_total

    def reset(self, now: float) -> None:
        self._start = now
        self._current_index = 0
        self._current_total = 0.0
        self._peak_total = 0.0
        self._grand_total = 0.0
