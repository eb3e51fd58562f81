"""Availability — Table II's approaches under injected server failures.

The paper evaluates a fleet where every server survives the whole day.
This extension replays the static Setup-2 comparison under a seeded
fault schedule (:mod:`repro.sim.faults`) at increasing per-period crash
rates and reports, per approach:

* energy relative to the same approach's fault-free run (evacuation
  migrations charge :class:`~repro.sim.migration.MigrationCostModel`
  energy, and a shrunken fleet packs hotter),
* the worst SLA violation (failures concentrate load on survivors, and
  degraded-capacity stragglers shave headroom),
* evacuation volume and unserved demand (periods where the surviving
  fleet cannot hold every displaced VM even with overcommit).

FFD rides along as a fourth approach: its packing is the most fragile of
the four under evacuation pressure, which makes the availability
ordering interesting beyond the paper's three.

The sweep runs through the hardened :func:`repro.sim.runner.run_scenarios`
and exposes its resilience knobs (``journal``/``resume``/``retries``/
``timeout_s``), so a multi-rate sweep that dies mid-flight resumes from
its journal re-running only the unfinished scenarios.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from pathlib import Path

from repro.analysis.reporting import ascii_table
from repro.experiments.base import ExperimentResult
from repro.experiments.setup2 import Setup2Config, build_fine_traces, setup2_scenarios
from repro.sim.approaches import FfdApproach
from repro.sim.faults import FaultConfig
from repro.sim.runner import Scenario, run_scenarios

__all__ = ["run", "FAULT_RATES", "fault_config"]

#: Per-period server crash probabilities swept (0.0 = the paper's world).
FAULT_RATES = (0.0, 0.02, 0.05, 0.10)

#: Fault-schedule seed (matches the default trace seed for provenance).
_FAULT_SEED = 2013


def fault_config(rate: float) -> FaultConfig | None:
    """The sweep's fault model at one crash rate (``None`` at zero).

    Zero rate returns ``None`` rather than a zero-rate schedule so the
    baseline rows exercise the byte-identical fault-free replay path.
    """
    if rate == 0.0:
        return None
    return FaultConfig(
        seed=_FAULT_SEED,
        crash_rate=rate,
        mean_downtime_periods=1.0,
        degraded_rate=rate / 2.0,
        degraded_capacity_factor=0.5,
    )


def _scenarios_for_rate(config: Setup2Config, fine_traces, rate: float) -> list[Scenario]:
    rate_config = replace(config, faults=fault_config(rate))
    prefix = f"rate{rate:g}:"
    scenarios = setup2_scenarios(rate_config, "static", fine_traces, name_prefix=prefix)
    # FFD is not part of setup2's three-way comparison; append it with
    # the same replay config (and trace builder) as its siblings.
    scenarios.append(
        replace(
            scenarios[0],
            name=f"{prefix}FFD",
            approach_factory=partial(
                FfdApproach,
                config.spec.n_cores,
                config.spec.freq_levels_ghz,
                max_servers=config.num_servers,
                default_reference=config.traces.vm_core_cap,
            ),
        )
    )
    return scenarios


def run(
    fast: bool = False,
    workers: int | None = None,
    journal: str | Path | None = None,
    resume: bool = False,
    retries: int = 0,
    timeout_s: float | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
    allocator: str = "exact",
) -> ExperimentResult:
    """Sweep fault rates over the four approaches (one scenario batch).

    ``journal``/``resume``/``retries``/``timeout_s`` and the checkpoint
    knobs (``checkpoint_every``/``checkpoint_dir``) pass straight
    through to :func:`repro.sim.runner.run_scenarios`; ``allocator``
    selects the proposed approach's backend (sharded evacuations cross
    shard boundaries, pricing cross-shard pairs through the plan's cost
    view).
    """
    base = Setup2Config(allocator=allocator)
    if fast:
        base = base.fast_variant()
    # Fast mode keeps the fault-free baseline plus the *highest* rate:
    # the shrunken horizon (6 placement periods) makes low rates likely
    # to draw an empty schedule, and a smoke run that never evacuates
    # tests nothing.
    rates = (FAULT_RATES[0], FAULT_RATES[-1]) if fast else FAULT_RATES
    labels = ("BFD", "FFD", "PCP", "Proposed")

    # One refined population serves every rate: the fault schedule is a
    # function of (fault config, fleet, horizon), never of the traces.
    fine_traces = build_fine_traces(base)
    scenarios = []
    for rate in rates:
        scenarios += _scenarios_for_rate(base, fine_traces, rate)
    results = dict(
        zip(
            [s.name for s in scenarios],
            run_scenarios(
                scenarios,
                workers=workers,
                journal=journal,
                resume=resume,
                retries=retries,
                timeout_s=timeout_s,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir,
            ),
            strict=True,
        )
    )

    rows = []
    per_rate: dict[float, dict[str, object]] = {}
    for rate in rates:
        named = {label: results[f"rate{rate:g}:{label}"] for label in labels}
        per_rate[rate] = named
        for label in labels:
            result = named[label]
            baseline = per_rate[rates[0]][label]
            stats = result.faults
            rows.append(
                (
                    f"{rate:g}",
                    label,
                    result.energy_j / baseline.energy_j,
                    result.max_violation_pct,
                    stats.evacuations if stats is not None else 0,
                    stats.unserved_demand_core_s if stats is not None else 0.0,
                )
            )

    table = ascii_table(
        [
            "crash rate",
            "approach",
            "energy vs fault-free",
            "max viol (%)",
            "evacuations",
            "unserved (core*s)",
        ],
        rows,
        title="Static Setup-2 under injected server failures",
    )

    data = {
        "rates": rates,
        "per_rate": per_rate,
        "fault_seed": _FAULT_SEED,
    }
    return ExperimentResult(
        experiment_id="availability",
        title="Availability under injected server failures (extension)",
        sections={"availability": table},
        data=data,
    )
