"""The benchmark's three closed-loop workloads and their output checks.

Every workload is a closed loop: the next period's ``decide()`` starts
when the previous period's accounting (and evacuation, and checkpoint)
has ended.  Inputs come only from the seed; the program receives the
generated traces and events and nothing else.  Run lengths are fixed
period counts derived from the requested seconds through a nominal
per-period cost, so one ``(seed, seconds)`` pair always replays the same
inputs and yields the same simulated metrics, however fast the host is.

Each run function takes a :class:`~tracer.PeriodClock`, wraps the
program's ``decide`` with it and stops it when the loop ends.
"""

from __future__ import annotations

import math
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.manager import ManagerConfig, PowerManager
from repro.core.sharding import ShardingConfig
from repro.infrastructure.server import XEON_E5410
from repro.sim import engine
from repro.sim.approaches import ProposedApproach
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.churn import ChurnEngine, synthesize_churn_events
from repro.sim.faults import FaultConfig, FaultSchedule
from repro.sim.metrics import violating_samples
from repro.traces.datacenter import DatacenterTraceConfig, generate_datacenter_traces
from repro.traces.synthesis import refine_trace_set
from repro.traces.trace import ReferenceSpec, TraceSet
from tracer import PeriodClock

SPEC = XEON_E5410
VM_CORE_CAP = 4.0
FINE_PERIOD_S = 5.0
TPERIOD_S = 600.0
SAMPLES_PER_PERIOD = int(TPERIOD_S / FINE_PERIOD_S)
HORIZON = 3
POPULATION_SEED = 2013


@dataclass
class Outcome:
    """What a finished run produced, for the checks and the metrics."""

    fleet: int
    #: ``(population, placement)`` actually served in each period.
    served: list[tuple]
    simulated: dict[str, float]
    #: Per period, servers that were down (their placements must avoid them).
    down: list[frozenset] = field(default_factory=list)


def energy_proxy_ghz(clock: PeriodClock) -> float:
    """Mean per period of the summed Eqn-4 frequencies."""
    sums = [sum(f.freq_ghz for f in freqs.values()) for _n, _p, freqs in clock.decisions]
    return float(np.mean(sums))


def fine_traces(seed: int, num_vms: int, num_clusters: int, periods: int) -> TraceSet:
    """One fixed v2 datacenter population, refined to 5 s samples by ``seed``.

    The coarse population (clusters, their diurnal profiles and bursts)
    is the workload's identity and stays fixed; the seed draws the 5 s
    realization.  Letting the seed redraw the population too moved
    ``servers_mean`` by 9-13% and violations by 40-70% between seeds,
    wider than any regression bound could tolerate.
    """
    coarse, _membership = generate_datacenter_traces(
        DatacenterTraceConfig(
            num_vms=num_vms,
            num_clusters=num_clusters,
            duration_s=periods * TPERIOD_S,
            vm_core_cap=VM_CORE_CAP,
            seed=POPULATION_SEED,
            profile_layout="v2",
        )
    )
    return refine_trace_set(
        coarse,
        FINE_PERIOD_S,
        sigma=0.04,
        rng=np.random.default_rng(seed),
        cap=VM_CORE_CAP,
        stream_layout="v2",
    )


def replay_workload(
    seed: int,
    periods: int,
    clock: PeriodClock,
    *,
    num_vms: int,
    fleet: int,
    reference: ReferenceSpec,
    horizon_mode: str,
    faults: FaultConfig | None,
) -> Outcome:
    """``ProposedApproach`` through ``engine.replay`` over ``periods`` decides."""
    # One replay decide per period after the first, so P decides need P+1 periods.
    traces = fine_traces(seed, num_vms, 16, periods + 1)
    approach = ProposedApproach(
        SPEC.n_cores,
        SPEC.freq_levels_ghz,
        max_servers=fleet,
        reference=reference,
        default_reference=VM_CORE_CAP,
        horizon_periods=HORIZON,
        horizon_mode=horizon_mode,
    )
    approach.decide = clock.wrap(approach.decide)
    config = engine.ReplayConfig(
        tperiod_s=TPERIOD_S, dvfs_mode="dynamic", dvfs_interval_samples=12, faults=faults
    )
    result = engine.replay(traces, SPEC, fleet, approach, config)
    clock.stop()
    down = []
    if faults is not None:
        schedule = FaultSchedule.build(faults, fleet, periods + 1)
        down = [
            frozenset(np.flatnonzero(schedule.failed_at(p)).tolist())
            for p in range(1, periods + 1)
        ]
    active = sum(p.num_active_servers for p in result.placements)
    simulated = {
        "servers_mean": result.mean_active_servers,
        "energy_proxy_ghz": energy_proxy_ghz(clock),
        "energy_kwh": result.energy_j / 3.6e6,
        "violation_pct": float(result.violation_ratio.sum()) / active * 100.0,
        "migrations": float(result.migrations),
    }
    served = [(traces.names, placement) for placement in result.placements]
    return Outcome(fleet, served, simulated, down)


def replay_exact(seed: int, periods: int, clock: PeriodClock, _scratch: Path) -> Outcome:
    return replay_workload(
        seed,
        periods,
        clock,
        num_vms=700,
        fleet=400,
        reference=ReferenceSpec(),
        horizon_mode="exact",
        faults=FaultConfig(seed=seed, crash_rate=0.01),
    )


def replay_percentile(seed: int, periods: int, clock: PeriodClock, _scratch: Path) -> Outcome:
    return replay_workload(
        seed,
        periods,
        clock,
        num_vms=300,
        fleet=60,
        reference=ReferenceSpec(percentile=90.0),
        horizon_mode="p2",
        faults=None,
    )


CHURN_POOL = 2400
CHURN_POOL_PERIODS = 12
CHURN_FLEET = 1200


def churn_sharded(
    seed: int,
    periods: int,
    clock: PeriodClock,
    scratch: Path,
    *,
    pool: int = CHURN_POOL,
    fleet: int = CHURN_FLEET,
) -> Outcome:
    """A sharded ``PowerManager`` under ``ChurnEngine``, half the pool active."""
    traces = fine_traces(seed, pool, 64, CHURN_POOL_PERIODS)
    events = synthesize_churn_events(
        traces.names, periods, TPERIOD_S, events_per_period=4, seed=seed
    )
    manager = PowerManager(
        ManagerConfig(
            n_cores=SPEC.n_cores,
            freq_levels_ghz=SPEC.freq_levels_ghz,
            max_servers=fleet,
            default_reference=VM_CORE_CAP,
            allocator="sharded",
            sharding=ShardingConfig(num_shards=12),
        )
    )
    manager.decide = clock.wrap(manager.decide)
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as checkpoints:
        loop = ChurnEngine(
            manager,
            traces,
            events,
            SAMPLES_PER_PERIOD,
            checkpoint=CheckpointPolicy(checkpoints, every_periods=10),
        )
        loop.run(periods)
        clock.stop()
    served = [(names, placement) for names, placement, _f in clock.decisions]
    energy_j, violating, active = _account(traces, clock.decisions)
    simulated = {
        "servers_mean": float(np.mean([p.num_active_servers for _n, p in served])),
        "energy_proxy_ghz": energy_proxy_ghz(clock),
        "energy_kwh": energy_j / 3.6e6,
        "violation_pct": violating / active * 100.0,
        "migrations": float(
            sum(
                later.migrations_from(earlier)
                for (_n, earlier), (_m, later) in zip(served, served[1:], strict=False)
            )
        ),
    }
    return Outcome(fleet, served, simulated)


def _account(traces: TraceSet, decisions: list[tuple]) -> tuple[float, float, int]:
    """Serve each churn decision against the next period's demand.

    The churn loop has no accounting stage of its own, so the benchmark
    scores each static plan the way the replay engine's static mode
    would: capacity from the chosen frequency, busy-fraction power, and
    the share of samples whose demand exceeds capacity.  Returns energy
    (J), summed per-server violation ratios and active server-periods.
    """
    row_of = {name: i for i, name in enumerate(traces.names)}
    total = traces.matrix.shape[1]
    energy_j = violating = 0.0
    active = 0
    power = SPEC.power_model
    for period, (_names, placement, frequencies) in enumerate(decisions):
        cols = np.arange((period + 1) * SAMPLES_PER_PERIOD, (period + 2) * SAMPLES_PER_PERIOD)
        block = traces.matrix[:, cols % total]
        for server, members in placement.by_server().items():
            freq = frequencies[server].freq_ghz
            demand = block[[row_of[vm] for vm in members]].sum(axis=0)
            capacity = SPEC.n_cores * freq / SPEC.fmax_ghz
            idle = power.idle_power_w(freq)
            busy = np.minimum(demand / capacity, 1.0)
            energy_j += float((idle + (power.busy_power_w(freq) - idle) * busy).sum())
            violating += float(violating_samples(demand, capacity).mean())
            active += 1
    return energy_j * FINE_PERIOD_S, violating, active


@dataclass(frozen=True)
class Workload:
    """A run function plus the period bookkeeping the harness needs.

    Why each workload exists is recorded in ``BENCHMARK.json`` and the
    README beside this file.
    """

    name: str
    run: Callable[[int, int, PeriodClock, Path], Outcome]
    #: Decides that count as set-up: horizon fill, or the cold first solve.
    warm_decides: int
    #: Nominal seconds per measured period, which turns seconds into periods.
    nominal_period_s: float

    def periods(self, seconds: float) -> int:
        """Decides in one run: set-up ones plus the measured ones."""
        return self.warm_decides + max(1, math.ceil(seconds / self.nominal_period_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("replay_exact", replay_exact, HORIZON, 0.25),
        Workload("replay_percentile", replay_percentile, HORIZON, 0.185),
        Workload("churn_sharded", churn_sharded, 1, 0.25),
    )
}
