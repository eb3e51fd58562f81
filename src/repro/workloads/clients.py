"""Client-population load shapes.

The paper emulates clients with Faban, varying the population "from 0 to
300 with the form of sine and cosine waves for Cluster1 and Cluster2,
respectively".  These shapes (plus a few extras for the examples and
robustness tests) are modelled as deterministic functions of time; the
stochastic parts of the workload (query arrivals, per-query demand) live
in the queueing simulator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Protocol

import numpy as np

__all__ = [
    "ClientLoad",
    "SineClients",
    "CosineClients",
    "FlashCrowdClients",
    "TraceClients",
]


class ClientLoad(Protocol):
    """Number of concurrent clients as a function of time."""

    def clients_at(self, t_s: float) -> float:
        """Client population at time ``t_s`` (non-negative)."""
        ...

    def sample(self, times_s: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an array of times."""
        ...


class _BaseLoad:
    """Default vectorized sampling on top of scalar ``clients_at``."""

    def sample(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        return np.array([self.clients_at(float(t)) for t in times])


class SineClients(_BaseLoad):
    """``min + (max-min) * (1 + sin) / 2`` — the paper's Cluster1 shape."""

    def __init__(
        self,
        min_clients: float = 0.0,
        max_clients: float = 300.0,
        period_s: float = 300.0,
        phase_rad: float = 0.0,
    ) -> None:
        if min_clients < 0 or max_clients < min_clients:
            raise ValueError("need 0 <= min_clients <= max_clients")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self._min = min_clients
        self._max = max_clients
        self._period = period_s
        self._phase = phase_rad

    def clients_at(self, t_s: float) -> float:
        wave = math.sin(2.0 * math.pi * t_s / self._period + self._phase)
        return self._min + (self._max - self._min) * (1.0 + wave) / 2.0

    def sample(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        wave = np.sin(2.0 * np.pi * times / self._period + self._phase)
        return self._min + (self._max - self._min) * (1.0 + wave) / 2.0


class CosineClients(SineClients):
    """The paper's Cluster2 shape — a sine led by 90 degrees.

    Using the phase relationship (rather than a separate formula) makes
    the anti-correlation between the two clusters explicit: their peaks
    are offset by a quarter period.
    """

    def __init__(
        self,
        min_clients: float = 0.0,
        max_clients: float = 300.0,
        period_s: float = 300.0,
    ) -> None:
        super().__init__(min_clients, max_clients, period_s, phase_rad=math.pi / 2.0)


class FlashCrowdClients(_BaseLoad):
    """Baseline population plus Gaussian crowd surges.

    Models the "abrupt workload changes" the paper blames for the
    residual mis-prediction violations of every approach.
    """

    def __init__(
        self,
        baseline: float,
        surges: Sequence[tuple[float, float, float]],
    ) -> None:
        """``surges`` is a list of ``(center_s, height, width_s)`` tuples."""
        if baseline < 0:
            raise ValueError("baseline must be non-negative")
        for center, height, width in surges:
            if height < 0 or width <= 0:
                raise ValueError("surge heights must be >= 0 and widths > 0")
        self._baseline = baseline
        self._surges = tuple(surges)

    def clients_at(self, t_s: float) -> float:
        total = self._baseline
        for center, height, width in self._surges:
            total += height * math.exp(-0.5 * ((t_s - center) / width) ** 2)
        return total


class TraceClients(_BaseLoad):
    """Client counts replayed from a sampled array (step interpolation)."""

    def __init__(self, counts: Sequence[float] | np.ndarray, period_s: float) -> None:
        data = np.asarray(counts, dtype=float)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("counts must be a non-empty 1-D sequence")
        if np.any(data < 0):
            raise ValueError("client counts must be non-negative")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self._counts = data
        self._period = period_s

    def clients_at(self, t_s: float) -> float:
        index = int(t_s // self._period)
        index = min(max(index, 0), self._counts.size - 1)
        return float(self._counts[index])
