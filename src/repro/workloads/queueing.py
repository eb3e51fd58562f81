"""Fork-join processor-sharing discrete-event simulator.

Substitutes for the paper's physical Setup-1 (CloudSuite web search on
Xen, Faban clients): it produces the 90th-percentile response times of
Fig 5 and cross-checks the utilization traces of Fig 4.

Model
-----
* Each **query** arrives at a cluster following a non-homogeneous Poisson
  process whose rate tracks the client population (``qps_per_client``
  queries per second per client).
* A query **forks** one task onto each of the cluster's ISNs; the query
  completes when the *slowest* task finishes (the front-end "sends
  results to clients only after collecting the search results from all
  ISNs"), plus a small front-end overhead.
* Each ISN task carries a service demand in core-seconds-at-fmax, drawn
  lognormally around the per-ISN mean (per-query matched-results
  variability — the source of the cluster's load imbalance).
* An ISN's tasks execute in a **region** — a pool of ``n_cores`` cores
  running at a frequency ratio ``f/fmax``.  Regions model the placement
  variants: Segregated pins each ISN to its own 4-core region; the Shared
  variants let two ISNs share one 8-core region.  Scheduling within a
  region is egalitarian processor sharing with a one-core-per-task cap:
  with ``k`` active tasks each progresses at ``min(f/fmax,
  k_cores * f/fmax / k)`` core-equivalents.

Implementation
--------------
Event-driven with the *attained-work* trick: within a region every active
task accrues work at the same rate, so each task can be indexed by the
region's cumulative attained work at which it will finish.  A heap per
region keyed by that target makes every arrival/completion O(log n), and
rates only change at events.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.analysis.stats import percentile
from repro.traces.trace import TraceSet, UtilizationTrace
from repro.workloads.clients import ClientLoad

__all__ = [
    "Region",
    "SimCluster",
    "QueueingConfig",
    "QueueingResult",
    "ForkJoinQueueingSimulator",
]


@dataclass(frozen=True)
class Region:
    """A pool of cores an ISN's tasks execute in.

    ``freq_ratio`` is ``f / fmax``; service demands are expressed at
    ``fmax``, so both per-task speed and total capacity scale with it.
    """

    region_id: str
    n_cores: float
    freq_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not self.region_id:
            raise ValueError("region_id must be non-empty")
        if self.n_cores <= 0:
            raise ValueError("a region needs positive core capacity")
        if not 0.0 < self.freq_ratio <= 1.0:
            raise ValueError("freq_ratio must lie in (0, 1]")

    @property
    def per_task_speed(self) -> float:
        """Max progress rate of a single task (core-equivalents at fmax)."""
        return self.freq_ratio

    @property
    def total_capacity(self) -> float:
        """Total region work rate (core-equivalents at fmax)."""
        return self.n_cores * self.freq_ratio

    def rate_with(self, active_tasks: int) -> float:
        """Per-task progress rate with ``active_tasks`` runnable tasks."""
        if active_tasks <= 0:
            return 0.0
        return min(self.per_task_speed, self.total_capacity / active_tasks)


@dataclass(frozen=True)
class SimCluster:
    """A web-search cluster as the queueing simulator sees it.

    Parameters
    ----------
    cluster_id:
        Display name.
    client_load:
        Driving client population.
    isn_names:
        VM ids of the ISNs (order defines the share order).
    isn_regions:
        Region id each ISN executes in (same length as ``isn_names``).
    isn_shares:
        Mean per-query demand multiplier per ISN; ``1.0`` is the balanced
        value.  Values are relative to ``QueueingConfig.base_demand``
        (e.g. ``(0.84, 1.16)`` reproduces Fig 4(a)'s skew).
    """

    cluster_id: str
    client_load: ClientLoad
    isn_names: tuple[str, ...]
    isn_regions: tuple[str, ...]
    isn_shares: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.isn_names:
            raise ValueError("a cluster needs at least one ISN")
        if len(self.isn_regions) != len(self.isn_names):
            raise ValueError("isn_regions must match isn_names")
        if self.isn_shares is not None:
            if len(self.isn_shares) != len(self.isn_names):
                raise ValueError("isn_shares must match isn_names")
            if any(s <= 0 for s in self.isn_shares):
                raise ValueError("shares must be positive")

    def shares(self) -> tuple[float, ...]:
        """Per-ISN demand multipliers (balanced default)."""
        if self.isn_shares is None:
            return tuple(1.0 for _ in self.isn_names)
        return self.isn_shares


@dataclass(frozen=True)
class QueueingConfig:
    """Global simulator parameters.

    ``base_demand_core_s`` is the mean per-task service demand at a share
    of 1.0, in core-seconds at fmax; together with ``qps_per_client`` it
    calibrates how close the testbed runs to saturation.
    """

    duration_s: float = 600.0
    qps_per_client: float = 0.115
    base_demand_core_s: float = 0.10
    service_sigma: float = 0.45
    frontend_overhead_s: float = 0.012
    utilization_bin_s: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.qps_per_client < 0:
            raise ValueError("qps_per_client must be non-negative")
        if self.base_demand_core_s <= 0:
            raise ValueError("base demand must be positive")
        if self.service_sigma < 0:
            raise ValueError("service_sigma must be non-negative")
        if self.frontend_overhead_s < 0:
            raise ValueError("front-end overhead must be non-negative")
        if self.utilization_bin_s <= 0:
            raise ValueError("utilization bin must be positive")


@dataclass(frozen=True)
class QueueingResult:
    """Response samples and measured utilization of one simulation run."""

    responses_by_cluster: Mapping[str, np.ndarray]
    arrival_times_by_cluster: Mapping[str, np.ndarray]
    utilization: TraceSet
    completed_queries: int
    dropped_queries: int

    def p90_response_s(self, cluster_id: str) -> float:
        """90th-percentile response time of one cluster (Fig 5's metric)."""
        return self.percentile_response_s(cluster_id, 90.0)

    def percentile_response_s(self, cluster_id: str, q: float) -> float:
        """Arbitrary response-time percentile (e.g. p99/p999 for SLOs)."""
        samples = self.responses_by_cluster[cluster_id]
        if samples.size == 0:
            raise ValueError(f"cluster {cluster_id!r} completed no queries")
        return percentile(samples, q)

    def mean_response_s(self, cluster_id: str) -> float:
        """Mean response time of one cluster."""
        samples = self.responses_by_cluster[cluster_id]
        if samples.size == 0:
            raise ValueError(f"cluster {cluster_id!r} completed no queries")
        return float(samples.mean())


class _RegionState:
    """Runtime state of one region (attained-work processor sharing)."""

    __slots__ = ("region", "attained", "heap", "active")

    def __init__(self, region: Region) -> None:
        self.region = region
        self.attained = 0.0          # cumulative per-task attained work
        self.heap: list[tuple[float, int]] = []  # (target_attained, task_id)
        self.active = 0

    @property
    def rate(self) -> float:
        """Current per-task progress rate."""
        return self.region.rate_with(self.active)

    def next_completion_dt(self) -> float:
        """Seconds until the earliest completion, or +inf when idle."""
        if not self.heap:
            return math.inf
        rate = self.rate
        if rate <= 0:
            return math.inf
        return max(0.0, (self.heap[0][0] - self.attained) / rate)


class _Task:
    """One ISN task of one query."""

    __slots__ = ("query_id", "vm_index")

    def __init__(self, query_id: int, vm_index: int) -> None:
        self.query_id = query_id
        self.vm_index = vm_index


class _Query:
    """Fork-join bookkeeping for one query."""

    __slots__ = ("cluster_index", "arrival_t", "pending", "last_finish_t")

    def __init__(self, cluster_index: int, arrival_t: float, fanout: int) -> None:
        self.cluster_index = cluster_index
        self.arrival_t = arrival_t
        self.pending = fanout
        self.last_finish_t = arrival_t


def _nhpp_arrivals(
    load: ClientLoad,
    qps_per_client: float,
    duration_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Non-homogeneous Poisson arrival times via Lewis-Shedler thinning."""
    if qps_per_client == 0.0:
        return np.empty(0)
    probe = load.sample(np.linspace(0.0, duration_s, 512))
    rate_max = float(np.max(probe)) * qps_per_client
    if rate_max <= 0:
        return np.empty(0)
    # The probe can miss narrow maxima; a 10% guard keeps thinning valid.
    rate_max *= 1.1
    times: list[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_max)
        if t >= duration_s:
            break
        accept = load.clients_at(t) * qps_per_client / rate_max
        if rng.random() < accept:
            times.append(t)
    return np.asarray(times)


class ForkJoinQueueingSimulator:
    """Discrete-event fork-join simulation over shared-core regions."""

    def __init__(
        self,
        clusters: Sequence[SimCluster],
        regions: Sequence[Region],
        config: QueueingConfig | None = None,
    ) -> None:
        if not clusters:
            raise ValueError("need at least one cluster")
        self._clusters = tuple(clusters)
        self._config = config or QueueingConfig()
        region_ids = [r.region_id for r in regions]
        if len(set(region_ids)) != len(region_ids):
            raise ValueError("duplicate region ids")
        self._regions = {r.region_id: r for r in regions}
        vm_names: list[str] = []
        for cluster in self._clusters:
            for name, region_id in zip(cluster.isn_names, cluster.isn_regions, strict=True):
                if region_id not in self._regions:
                    raise ValueError(f"unknown region {region_id!r} for ISN {name!r}")
                if name in vm_names:
                    raise ValueError(f"duplicate ISN name {name!r}")
                vm_names.append(name)
        self._vm_names = tuple(vm_names)

    def run(self) -> QueueingResult:
        """Execute the simulation and collect responses + utilization."""
        config = self._config
        rng = np.random.default_rng(config.seed)

        # --- static lookup tables -------------------------------------
        vm_index = {name: i for i, name in enumerate(self._vm_names)}
        vm_region: list[str] = [""] * len(self._vm_names)
        vm_share: list[float] = [1.0] * len(self._vm_names)
        vm_cluster: list[int] = [0] * len(self._vm_names)
        for c_index, cluster in enumerate(self._clusters):
            for name, region_id, share in zip(
                cluster.isn_names, cluster.isn_regions, cluster.shares(), strict=True
            ):
                i = vm_index[name]
                vm_region[i] = region_id
                vm_share[i] = share
                vm_cluster[i] = c_index

        # --- arrivals ---------------------------------------------------
        arrival_streams = [
            _nhpp_arrivals(cluster.client_load, config.qps_per_client, config.duration_s, rng)
            for cluster in self._clusters
        ]
        events: list[tuple[float, int, int]] = []  # (time, cluster_index, seq)
        for c_index, stream in enumerate(arrival_streams):
            for seq, t in enumerate(stream):
                events.append((float(t), c_index, seq))
        events.sort()

        # --- runtime state ----------------------------------------------
        states = {rid: _RegionState(region) for rid, region in self._regions.items()}
        queries: dict[int, _Query] = {}
        tasks: dict[int, _Task] = {}
        vm_active: list[int] = [0] * len(self._vm_names)
        next_query_id = 0
        next_task_id = 0

        bins = int(math.ceil(config.duration_s / config.utilization_bin_s))
        work_bins = np.zeros((len(self._vm_names), bins))

        responses: dict[str, list[float]] = {c.cluster_id: [] for c in self._clusters}
        arrivals_out: dict[str, list[float]] = {c.cluster_id: [] for c in self._clusters}
        completed = 0
        dropped = 0

        def account_work(t0: float, t1: float) -> None:
            """Credit work done in [t0, t1) to per-VM utilization bins."""
            if t1 <= t0:
                return
            for rid, state in states.items():
                if state.active == 0:
                    continue
                rate = state.rate
                if rate <= 0:
                    continue
                for i in range(len(self._vm_names)):
                    if vm_region[i] != rid or vm_active[i] == 0:
                        continue
                    vm_rate = rate * vm_active[i]
                    lo = t0
                    while lo < t1 - 1e-15:
                        bin_i = min(int(lo / config.utilization_bin_s), bins - 1)
                        bin_end = (bin_i + 1) * config.utilization_bin_s
                        hi = min(t1, bin_end)
                        work_bins[i, bin_i] += vm_rate * (hi - lo)
                        lo = hi

        def advance(t0: float, t1: float) -> None:
            """Move simulated time forward, accruing attained work."""
            account_work(t0, t1)
            dt = t1 - t0
            if dt <= 0:
                return
            for state in states.values():
                if state.active > 0:
                    state.attained += state.rate * dt

        now = 0.0
        event_cursor = 0
        horizon = config.duration_s

        while True:
            next_arrival_t = events[event_cursor][0] if event_cursor < len(events) else math.inf
            next_completion_t = math.inf
            completing_region: str | None = None
            for rid, state in states.items():
                dt = state.next_completion_dt()
                if now + dt < next_completion_t:
                    next_completion_t = now + dt
                    completing_region = rid

            next_t = min(next_arrival_t, next_completion_t)
            if next_t is math.inf or next_t > horizon:
                # Drain: anything still in flight past the horizon is
                # recorded as dropped (not silently completed early).
                advance(now, min(horizon, max(now, horizon)))
                dropped += len(queries)
                break

            advance(now, next_t)
            now = next_t

            if next_arrival_t <= next_completion_t:
                # --- arrival ---------------------------------------------
                _, c_index, _ = events[event_cursor]
                event_cursor += 1
                cluster = self._clusters[c_index]
                query = _Query(c_index, now, len(cluster.isn_names))
                queries[next_query_id] = query
                for name in cluster.isn_names:
                    i = vm_index[name]
                    demand = (
                        config.base_demand_core_s
                        * vm_share[i]
                        * rng.lognormal(-config.service_sigma**2 / 2.0, config.service_sigma)
                    )
                    state = states[vm_region[i]]
                    target = state.attained + demand
                    heapq.heappush(state.heap, (target, next_task_id))
                    tasks[next_task_id] = _Task(next_query_id, i)
                    state.active += 1
                    vm_active[i] += 1
                    next_task_id += 1
                next_query_id += 1
            else:
                # --- completion ------------------------------------------
                state = states[completing_region]  # type: ignore[index]
                target, task_id = heapq.heappop(state.heap)
                # Guard against float drift: the task is done by construction.
                state.attained = max(state.attained, target)
                task = tasks.pop(task_id)
                state.active -= 1
                vm_active[task.vm_index] -= 1
                query = queries[task.query_id]
                query.pending -= 1
                query.last_finish_t = max(query.last_finish_t, now)
                if query.pending == 0:
                    del queries[task.query_id]
                    cluster = self._clusters[query.cluster_index]
                    overhead = config.frontend_overhead_s * (1.0 + 0.25 * rng.random())
                    response = (query.last_finish_t - query.arrival_t) + overhead
                    responses[cluster.cluster_id].append(response)
                    arrivals_out[cluster.cluster_id].append(query.arrival_t)
                    completed += 1

        utilization = TraceSet(
            UtilizationTrace(
                work_bins[i] / config.utilization_bin_s,
                config.utilization_bin_s,
                name,
            )
            for i, name in enumerate(self._vm_names)
        )
        return QueueingResult(
            responses_by_cluster={
                cid: np.asarray(values) for cid, values in responses.items()
            },
            arrival_times_by_cluster={
                cid: np.asarray(values) for cid, values in arrivals_out.items()
            },
            utilization=utilization,
            completed_queries=completed,
            dropped_queries=dropped,
        )
