"""Web-search cluster model: client count to per-ISN CPU demand.

A distributed web-search cluster (CloudSuite style) consists of a
front-end that fans each query out to ``n`` index-serving nodes (ISNs)
and joins their results.  Section III-B's observations, which this model
encodes:

* per-ISN CPU utilization is "highly synchronized with the variation of
  the number of clients" (intra-cluster correlation, Fig 1), and
* "loads between VMs in a cluster are not perfectly balanced because the
  CPU utilization depends on the amount of matched results" — a per-ISN
  share skew on top of the shared signal.

The model maps a :class:`~repro.workloads.clients.ClientLoad` to per-ISN
demand traces in cores-at-fmax: cluster demand scales linearly with the
client population (open-loop approximation valid below saturation), is
split across ISNs by slowly wandering share weights, and carries
multiplicative monitoring noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.trace import TraceSet, UtilizationTrace
from repro.workloads.clients import ClientLoad

__all__ = ["WebSearchClusterConfig", "WebSearchCluster"]


@dataclass(frozen=True)
class WebSearchClusterConfig:
    """Shape of one web-search cluster.

    Parameters
    ----------
    cluster_id:
        Name used to derive VM ids (``"<cluster_id>-isn<k>"``).
    n_isns:
        Index-serving nodes in the cluster (the paper uses two).
    max_clients:
        Client population at which the cluster reaches
        ``peak_cluster_cores`` of demand.
    peak_cluster_cores:
        Total ISN demand (cores-at-fmax) at ``max_clients`` with balanced
        shares.
    share_skew:
        Optional static per-ISN share weights (must sum to 1); ``None``
        means balanced.  Fig 4(a)'s under/over-utilized pair corresponds
        to e.g. ``(0.42, 0.58)``.
    share_wander:
        Amplitude of the slow sinusoidal wander of the shares around
        their base value (matched-results variability at the minutes
        scale); 0 disables it.
    wander_period_s:
        Period of the share wander.
    noise_sigma:
        Log-space sigma of multiplicative per-sample noise.
    isn_core_cap:
        Cores available to each ISN VM; demand is clipped here (a VM
        cannot use cores it does not have — the saturation that produces
        Fig 4(a)'s flat-topped over-utilized traces).
    """

    cluster_id: str
    n_isns: int = 2
    max_clients: float = 300.0
    peak_cluster_cores: float = 7.0
    share_skew: tuple[float, ...] | None = None
    share_wander: float = 0.06
    wander_period_s: float = 700.0
    noise_sigma: float = 0.04
    isn_core_cap: float = 8.0

    def __post_init__(self) -> None:
        if not self.cluster_id:
            raise ValueError("cluster_id must be non-empty")
        if self.n_isns < 1:
            raise ValueError("a cluster needs at least one ISN")
        if self.max_clients <= 0:
            raise ValueError("max_clients must be positive")
        if self.peak_cluster_cores <= 0:
            raise ValueError("peak_cluster_cores must be positive")
        if self.share_skew is not None:
            if len(self.share_skew) != self.n_isns:
                raise ValueError("share_skew must have one weight per ISN")
            if any(w <= 0 for w in self.share_skew):
                raise ValueError("share weights must be positive")
            if abs(sum(self.share_skew) - 1.0) > 1e-9:
                raise ValueError("share weights must sum to 1")
        if self.share_wander < 0 or self.wander_period_s <= 0:
            raise ValueError("invalid share wander parameters")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.isn_core_cap <= 0:
            raise ValueError("invalid capacity parameters")

    def isn_names(self) -> tuple[str, ...]:
        """VM ids of the ISNs, e.g. ``("C1-isn1", "C1-isn2")``."""
        return tuple(f"{self.cluster_id}-isn{k + 1}" for k in range(self.n_isns))


class WebSearchCluster:
    """One web-search cluster driven by a client load."""

    def __init__(self, config: WebSearchClusterConfig, client_load: ClientLoad) -> None:
        self._config = config
        self._load = client_load

    @property
    def config(self) -> WebSearchClusterConfig:
        """The cluster's shape parameters."""
        return self._config

    @property
    def client_load(self) -> ClientLoad:
        """The driving client population."""
        return self._load

    def share_weights(self, times_s: np.ndarray) -> np.ndarray:
        """Per-ISN demand shares over time, shape ``(n_isns, len(times))``.

        Base shares (``share_skew`` or balanced) plus a slow sinusoidal
        wander with evenly spread phases, renormalized so the shares sum
        to 1 at every instant.
        """
        config = self._config
        times = np.asarray(times_s, dtype=float)
        base = (
            np.asarray(config.share_skew, dtype=float)
            if config.share_skew is not None
            else np.full(config.n_isns, 1.0 / config.n_isns)
        )
        shares = np.empty((config.n_isns, times.size))
        for k in range(config.n_isns):
            phase = 2.0 * np.pi * k / max(config.n_isns, 1)
            wander = config.share_wander * np.sin(
                2.0 * np.pi * times / config.wander_period_s + phase
            )
            shares[k] = np.maximum(base[k] * (1.0 + wander), 1e-6)
        return shares / shares.sum(axis=0, keepdims=True)

    def cluster_demand(self, times_s: np.ndarray) -> np.ndarray:
        """Total ISN demand (cores-at-fmax) driven by the client count."""
        config = self._config
        clients = self._load.sample(np.asarray(times_s, dtype=float))
        return np.maximum(clients, 0.0) / config.max_clients * config.peak_cluster_cores

    def isn_demand_traces(
        self,
        duration_s: float,
        period_s: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> TraceSet:
        """Sampled per-ISN demand traces (the Fig 1 / Fig 4 signals)."""
        config = self._config
        n = int(round(duration_s / period_s))
        if n < 1:
            raise ValueError("duration must cover at least one sample")
        times = np.arange(n, dtype=float) * period_s
        demand = self.cluster_demand(times)
        shares = self.share_weights(times)
        if rng is None:
            rng = np.random.default_rng()
        traces = []
        for k, name in enumerate(config.isn_names()):
            signal = demand * shares[k]
            if config.noise_sigma > 0:
                signal = signal * rng.lognormal(0.0, config.noise_sigma, size=n)
            signal = np.clip(signal, 0.0, config.isn_core_cap)
            traces.append(UtilizationTrace(signal, period_s, name))
        return TraceSet(traces)
