"""Energy vs tail-latency frontier of the placement policies (extension).

The paper scores placement on energy and peak-utilization violations,
yet its own Setup-1 service is latency-sensitive web search.  This
experiment closes that loop: every placement policy (Proposed exact,
Proposed sharded, PCP, BFD, FFD) is replayed on the Setup-2 population,
then its chosen placement is *served* at request level and scored
against an SLO — producing an energy-vs-p99 frontier none of the
baselines in PAPERS.md reports.

Pipeline
--------
1. **Placements + energy.**  One scenario per policy, fanned through
   :func:`repro.sim.runner.run_scenarios` (``workers=N`` is bit-identical
   to serial execution); each replay yields the energy proxy
   (``energy_j``) and per-period placements.
2. **The TraceSet bridge.**  The placement of the peak-demand period is
   mapped to :class:`~repro.workloads.queueing.Region` pools: each
   active server becomes one region whose capacity is the cores left
   over after its co-located VMs' mean demand (from the same
   :class:`~repro.traces.trace.TraceSet` window the replay consumed).
   Tighter packings power fewer servers — less energy, but also less
   aggregate headroom for request traffic.
3. **Request-level scoring.**  Each load point offers the *same*
   request rate to every policy (a fixed fraction of the fleet-wide
   mean headroom, identical across policies by construction), through
   the :mod:`repro.workloads.requests` catalog (Zipf key popularity x
   bimodal ETC-style service law) and the
   :mod:`repro.workloads.dispatch` layer.  p99/p999 latency is compared
   against ``slo_s``.

Every stage is seeded and deterministic, so the whole experiment is
byte-identical between serial and pooled execution (gated by
``slo_frontier`` in ``benchmarks/bench_scaling.py``).
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from functools import partial
from collections.abc import Sequence

import numpy as np

from repro.analysis.reporting import ascii_table
from repro.core.sharding import ShardingConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.setup2 import Setup2Config, build_fine_traces, setup2_scenarios
from repro.sim.approaches import FfdApproach, ProposedApproach
from repro.sim.results import ReplayResult
from repro.sim.runner import run_scenarios
from repro.traces.trace import TraceSet
from repro.workloads.dispatch import DispatchConfig, RequestDispatchSimulator
from repro.workloads.queueing import Region
from repro.workloads.requests import BimodalService, ZipfKeyArrivals

__all__ = ["run", "frontier_fingerprint", "LOAD_POINTS", "POLICIES", "SLO_S"]

#: Offered load points, as fractions of the reference serving capacity.
LOAD_POINTS = (0.3, 0.6, 0.9)

#: Placement policies swept (label order is report order).
POLICIES = ("BFD", "FFD", "PCP", "Proposed", "Proposed-sharded")

#: Default response-time SLO (seconds) the p99/p999 ratios score against.
SLO_S = 1.0

#: Requests below the minimum region capacity would make a starved
#: server infinitely slow; a placed server always keeps a sliver.
_MIN_REGION_CORES = 0.5

#: Offered-rate ceiling (qps) bounding the discrete-event wall time.
_MAX_QPS = 600.0

#: Successive p99 samples may dip by run-to-run percentile noise this
#: much and still count as monotone in load.
_MONOTONE_TOLERANCE = 0.95


def frontier_fingerprint(result: ExperimentResult) -> bytes:
    """Canonical byte form of one frontier run, for equivalence checks.

    Replay results are pickled *individually* (the runner's byte-identity
    contract holds per result; a dict of results additionally encodes
    cross-result object sharing, which an in-process run has and a
    pool-shipped run does not), alongside every derived number and the
    rendered sections.
    """
    per_policy = [
        pickle.dumps(result.data["results"][name])
        for name in result.data["policies"]
    ]
    derived = {key: value for key, value in result.data.items() if key != "results"}
    return pickle.dumps((result.sections, derived, per_policy))


def _frontier_scenarios(config: Setup2Config, fine: TraceSet) -> dict[str, object]:
    """One scenario per policy label, in :data:`POLICIES` order."""
    base = setup2_scenarios(config, "static", fine)
    by_name = {scenario.name: scenario for scenario in base}
    proposed = by_name["Proposed"]
    sharding = config.sharding or ShardingConfig(num_shards=2)
    ffd = replace(
        by_name["BFD"],
        name="FFD",
        approach_factory=partial(
            FfdApproach,
            config.spec.n_cores,
            config.spec.freq_levels_ghz,
            max_servers=config.num_servers,
            default_reference=config.traces.vm_core_cap,
        ),
    )
    sharded = replace(
        proposed,
        name="Proposed-sharded",
        approach_factory=partial(
            ProposedApproach,
            config.spec.n_cores,
            config.spec.freq_levels_ghz,
            max_servers=config.num_servers,
            allocation=config.allocation,
            default_reference=config.traces.vm_core_cap,
            horizon_periods=1,
            horizon_mode=config.horizon_mode,
            allocator="sharded",
            sharding=sharding,
        ),
    )
    return {
        "BFD": by_name["BFD"],
        "FFD": ffd,
        "PCP": by_name["PCP"],
        "Proposed": proposed,
        "Proposed-sharded": sharded,
    }


def _peak_period(traces: TraceSet, result: ReplayResult) -> int:
    """The measured period with the highest aggregate demand."""
    spp = result.samples_per_period
    matrix = traces.matrix
    totals = [
        float(matrix[:, p * spp : (p + 1) * spp].sum())
        for p in range(result.num_periods)
    ]
    return int(np.argmax(totals))


def _regions_from_result(
    traces: TraceSet, result: ReplayResult, config: Setup2Config, period: int
) -> list[Region]:
    """Map one period's placement to request-serving regions.

    Each active server becomes a :class:`Region` whose capacity is the
    cores its co-located VMs leave free on average over that period's
    trace window — the TraceSet bridge between the replay's placement
    world and the request-level simulator.
    """
    spp = result.samples_per_period
    window = traces.matrix[:, period * spp : (period + 1) * spp]
    index = {name: i for i, name in enumerate(traces.names)}
    placement = result.placements[period]
    regions = []
    for server, vms in sorted(placement.by_server().items()):
        background = sum(float(window[index[vm]].mean()) for vm in vms)
        free = max(_MIN_REGION_CORES, config.spec.n_cores - background)
        regions.append(Region(f"s{server}", free))
    return regions


def _serving_capacity(regions: Sequence[Region]) -> float:
    """Total free cores a region set can put behind request traffic."""
    return sum(region.n_cores for region in regions)


def run(
    fast: bool = False,
    workers: int | None = None,
    config: Setup2Config | None = None,
    slo_s: float = SLO_S,
    load_points: Sequence[float] | None = None,
    policies: Sequence[str] | None = None,
    dispatch_policy: str = "jsq",
    request_duration_s: float | None = None,
    request_seed: int = 2013,
) -> ExperimentResult:
    """Score every placement policy's energy against its request tails.

    ``policies``/``load_points`` shrink the grid (the CI smoke runs two
    policies over a tiny population); the defaults sweep all five
    policies over :data:`LOAD_POINTS`.  ``workers`` fans the replays
    over a process pool; the request-level stage is seeded per (policy,
    load) cell, so the full result is byte-identical either way.
    """
    config = config or Setup2Config()
    if fast:
        config = config.fast_variant()
    chosen_loads = tuple(load_points) if load_points is not None else LOAD_POINTS
    chosen_policies = tuple(policies) if policies is not None else POLICIES
    unknown = [p for p in chosen_policies if p not in POLICIES]
    if unknown:
        raise ValueError(f"unknown policies {unknown!r}; expected among {POLICIES}")
    if not chosen_loads or any(not 0.0 < rho for rho in chosen_loads):
        raise ValueError("load points must be positive")
    if request_duration_s is None:
        request_duration_s = 90.0

    fine = build_fine_traces(config)
    scenario_map = _frontier_scenarios(config, fine)
    scenarios = [scenario_map[name] for name in chosen_policies]
    swept = run_scenarios(scenarios, workers=workers)

    # Load points are fractions of the *first* policy's serving capacity
    # (free cores on its active servers), so every policy faces the same
    # offered rate at each point — tighter packings with fewer powered
    # servers then run the same traffic with less headroom, which is the
    # energy-vs-tail trade-off being measured.
    reference = swept[0]
    period = _peak_period(fine, reference)
    capacity = _serving_capacity(
        _regions_from_result(fine, reference, config, period)
    )
    dispatch_base = DispatchConfig(duration_s=request_duration_s)
    rates = tuple(
        min(rho * capacity / dispatch_base.base_demand_core_s, _MAX_QPS)
        for rho in chosen_loads
    )

    frontier: dict[str, tuple[dict[str, float], ...]] = {}
    monotone: dict[str, bool] = {}
    results: dict[str, ReplayResult] = {}
    rows = []
    for name, result in zip(chosen_policies, swept, strict=True):
        results[name] = result
        regions = _regions_from_result(fine, result, config, period)
        points = []
        for load_idx, (rho, rate) in enumerate(zip(chosen_loads, rates, strict=True)):
            # One seed per load point: every policy serves the *same*
            # request stream at a given load (common random numbers), so
            # cross-policy tail differences are purely placement-driven.
            sim = RequestDispatchSimulator(
                regions,
                ZipfKeyArrivals(rate),
                BimodalService(),
                policy=dispatch_policy,
                config=replace(dispatch_base, seed=request_seed + load_idx),
            )
            served = sim.run()
            p99 = served.p99_response_s
            p999 = served.p999_response_s
            points.append(
                {
                    "load": rho,
                    "rate_qps": rate,
                    "p99_s": p99,
                    "p999_s": p999,
                    "p99_vs_slo": p99 / slo_s,
                    "p999_vs_slo": p999 / slo_s,
                    "completed": served.completed_requests,
                    "dropped": served.dropped_requests,
                }
            )
            rows.append(
                (
                    name,
                    f"{rho:.2f}",
                    f"{rate:.0f}",
                    len(regions),
                    result.energy_j / 1e3,
                    p99 * 1e3,
                    p999 * 1e3,
                    p99 / slo_s,
                )
            )
        frontier[name] = tuple(points)
        p99_series = [point["p99_s"] for point in points]
        monotone[name] = all(
            later >= earlier * _MONOTONE_TOLERANCE
            for earlier, later in zip(p99_series, p99_series[1:], strict=False)
        )

    worst = max(
        point["p99_vs_slo"] for points in frontier.values() for point in points
    )
    table = ascii_table(
        [
            "policy",
            "load",
            "rate (qps)",
            "regions",
            "energy (kJ)",
            "p99 (ms)",
            "p999 (ms)",
            "p99 / SLO",
        ],
        rows,
        title=f"Energy vs tail latency under a {slo_s * 1e3:.0f} ms SLO",
    )
    data = {
        "slo_s": slo_s,
        "load_points": chosen_loads,
        "rates_qps": rates,
        "policies": chosen_policies,
        "dispatch_policy": dispatch_policy,
        "frontier": frontier,
        "energy_j": {name: results[name].energy_j for name in chosen_policies},
        "p99_monotone_in_load": monotone,
        "worst_p99_vs_slo": worst,
        "results": results,
    }
    return ExperimentResult(
        experiment_id="slo_frontier",
        title="Energy vs p99/p999 latency frontier under an SLO (extension)",
        sections={"frontier": table},
        data=data,
    )
