"""The trace-replay loop: periodic placement, v/f scaling, accounting.

Mirrors the paper's Setup-2 methodology: placement every ``t_period``
(1 hour) from predictions over the previous period, then replay of the
period's actual fine-grained samples against the chosen placement and
frequency plan.  Two v/f modes:

* **static** (Table II(a)) — each server keeps its placement-time
  frequency for the whole period;
* **dynamic** (Table II(b)) — every ``dvfs_interval_samples`` samples
  (12 × 5 s = 1 minute in the paper, chosen to avoid reliability-hurting
  oscillation) the frequency is re-chosen reactively from the previous
  interval's demand, for *every* approach.

The first period is pure warm-up (there is no history to predict from);
metrics cover periods ``1 .. P-1``.

The accounting is *fleet-vectorized*: each period's frequency plan,
violation ratios, residency counts and busy-fraction power are computed
for all active servers at once (interval-peak reshape + vectorized
ladder quantization, one boolean reduction per violation row, one
bincount for residency, one batched power evaluation).  The only
remaining per-server work is the energy accumulation, which preserves
the exact summation order of the per-server scalar loop this engine
replaced, so results stay bit-identical to it (the grouped ``reduceat``
demand gather below is shared with that loop verbatim — its accumulation
order is part of the contract; see ``tests/test_replay_vectorized.py``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.infrastructure.dvfs import UtilizationTrackingPolicy
from repro.infrastructure.server import ServerSpec
from repro.sim import audit as _audit
from repro.sim.approaches import ConsolidationApproach
from repro.sim.checkpoint import (
    CheckpointPolicy,
    resume_run_state,
    run_fingerprint,
    save_run_state,
)
# Kept importable here: perfbench's tracer patches this module's name.
from repro.sim.checkpoint import save_checkpoint  # noqa: F401
from repro.sim.faults import FaultConfig, FaultSchedule, evacuate_fleet
from repro.sim.metrics import FrequencyResidency, violating_samples
from repro.sim.results import FaultStats, ReplayResult
from repro.traces.trace import TraceSet

__all__ = ["ReplayConfig", "replay"]


@dataclass(frozen=True)
class ReplayConfig:
    """Replay parameters (defaults reproduce the paper's Setup-2).

    ``oracle`` enables perfect reference prediction: before each
    placement, approaches exposing ``prime_oracle`` receive the *actual*
    upcoming per-VM reference utilizations.  No real system has this; it
    exists to separate placement quality from predictor error in the
    ablation experiments.

    ``faults`` enables fault injection (see :mod:`repro.sim.faults`):
    failed servers are masked out of the fleet, their VMs evacuated (one
    charged migration each), and stragglers run at degraded capacity.
    ``None`` (the default) disables the layer entirely — the replay is
    then bit-identical to an engine without it (a tested contract).

    ``checkpoint`` enables crash-safe mid-replay checkpoints (see
    :mod:`repro.sim.checkpoint`): the complete loop state is atomically
    persisted every ``checkpoint.every_periods`` completed periods, and
    ``replay(..., resume_from=...)`` restarts from the newest valid
    checkpoint byte-identically to an uninterrupted run.  ``None`` (the
    default) keeps the loop checkpoint-free and bit-identical to an
    engine without the feature.
    """

    tperiod_s: float = 3600.0
    dvfs_mode: str = "static"
    dvfs_interval_samples: int = 12
    dvfs_headroom: float = 1.0
    oracle: bool = False
    faults: FaultConfig | None = None
    checkpoint: CheckpointPolicy | None = None

    def __post_init__(self) -> None:
        # NaN-safe: ``NaN <= 0`` and ``NaN < 1`` are both False, so each
        # bound also requires finiteness (mirrors MigrationCostModel).
        if not math.isfinite(self.tperiod_s) or self.tperiod_s <= 0:
            raise ValueError("tperiod_s must be positive")
        if self.dvfs_mode not in ("static", "dynamic"):
            raise ValueError(f"dvfs_mode must be 'static' or 'dynamic', got {self.dvfs_mode!r}")
        if not math.isfinite(self.dvfs_interval_samples) or self.dvfs_interval_samples < 1:
            raise ValueError("dvfs_interval_samples must be positive")
        if not math.isfinite(self.dvfs_headroom) or self.dvfs_headroom < 1.0:
            raise ValueError("dvfs_headroom below 1.0 deliberately under-provisions")


def _replay_fingerprint(
    fine_traces: TraceSet,
    spec: ServerSpec,
    num_servers: int,
    approach: ConsolidationApproach,
    config: ReplayConfig,
) -> str:
    """Identity hash binding a checkpoint to one exact replay call.

    Covers everything the loop's trajectory depends on — config (minus
    the operational checkpoint policy), server spec, fleet size, trace
    identity and the approach's type/name — so a checkpoint can never be
    resumed into a *different* replay and silently diverge.
    """
    return run_fingerprint(
        replace(config, checkpoint=None),
        spec,
        int(num_servers),
        fine_traces.names,
        tuple(fine_traces.matrix.shape),
        float(fine_traces.period_s),
        float(fine_traces.matrix.sum()),
        type(approach).__qualname__,
        str(getattr(approach, "name", "")),
    )


def replay(
    fine_traces: TraceSet,
    spec: ServerSpec,
    num_servers: int,
    approach: ConsolidationApproach,
    config: ReplayConfig | None = None,
    *,
    resume_from: str | Path | None = None,
) -> ReplayResult:
    """Replay ``fine_traces`` under ``approach`` on a simulated fleet.

    Parameters
    ----------
    fine_traces:
        Fine-grained demand traces (e.g. 5-second samples) covering at
        least two placement periods.
    spec:
        The homogeneous server model (capacity, ladder, power).
    num_servers:
        Fleet size; the approach may not exceed it.
    approach:
        A :class:`~repro.sim.approaches.ConsolidationApproach`.
    config:
        Replay parameters; defaults are the paper's.
    resume_from:
        A checkpoint directory (or single ``.ckpt`` file) to restart
        from.  The newest valid checkpoint whose identity fingerprint
        matches this call is restored and the loop continues mid-stream,
        byte-identically to an uninterrupted run; anything unusable
        (corrupt, truncated, version- or identity-mismatched) is
        reported with a ``RuntimeWarning`` and the replay cold-starts.
    """
    config = config or ReplayConfig()
    samples_per_period = int(round(config.tperiod_s / fine_traces.period_s))
    if samples_per_period < 1:
        raise ValueError("tperiod shorter than one sample")
    total_periods = fine_traces.num_samples // samples_per_period
    if total_periods < 2:
        raise ValueError(
            f"need at least 2 periods of {samples_per_period} samples, "
            f"trace has {fine_traces.num_samples}"
        )

    approach.reset()
    schedule = (
        FaultSchedule.build(config.faults, num_servers, total_periods)
        if config.faults is not None
        else None
    )
    evacuations = 0
    evacuation_energy_j = 0.0
    unserved_core_s = 0.0
    unplaced_vm_periods = 0
    policy = UtilizationTrackingPolicy(config.dvfs_interval_samples, config.dvfs_headroom)
    ladder = spec.ladder
    num_levels = ladder.num_levels
    # Per-level wattages, gathered once; ``power_table`` reproduces the
    # scalar lookups bit-for-bit.
    idle_w, busy_w = spec.power_model.power_table(ladder.levels_array)
    delta_w = busy_w - idle_w

    measured_periods = total_periods - 1
    violation = np.zeros((measured_periods, num_servers), dtype=float)
    residency = FrequencyResidency(num_servers, ladder.levels_ghz)
    energy_j = 0.0
    migrations = 0
    active_counts: list[int] = []
    placements: list = []
    infos: list = []
    previous_placement = None

    name_to_row = {name: i for i, name in enumerate(fine_traces.names)}
    matrix = fine_traces.matrix

    checkpoint_policy = config.checkpoint
    audit_events: list = []
    last_audit_energy_j = 0.0
    start_period = 1
    fingerprint = (
        _replay_fingerprint(fine_traces, spec, num_servers, approach, config)
        if checkpoint_policy is not None or resume_from is not None
        else None
    )
    if resume_from is not None:

        def resumed_state(meta: dict, state: dict) -> dict:
            # Defense in depth behind the fingerprint: a checkpoint of
            # another fault schedule or fleet geometry is rejected.
            expected_hash = schedule.content_hash() if schedule is not None else None
            if meta.get("schedule_sha256") != expected_hash:
                raise ValueError("written under a different fault schedule")
            restored = np.array(state["violation"], dtype=float)
            if restored.shape != (measured_periods, num_servers):
                raise ValueError("checkpointed violation matrix shape mismatch")
            fresh = FrequencyResidency(num_servers, ladder.levels_ghz)
            fresh.restore(state["residency"])
            next_period = int(meta["next_period"])
            return {**state, "violation": restored, "residency": fresh, "next_period": next_period}

        try:
            resumed = resume_run_state(
                resume_from, fingerprint, fine_traces.names, approach, resumed_state
            )
        except ValueError as error:  # a checkpoint of a different replay
            warnings.warn(f"{error}; cold-starting", RuntimeWarning, stacklevel=2)
            resumed = None
        if resumed is not None:
            state, approach = resumed
            violation = state["violation"]
            residency = state["residency"]
            start_period = state["next_period"]
            evacuations = state["evacuations"]
            evacuation_energy_j = state["evacuation_energy_j"]
            unserved_core_s = state["unserved_core_s"]
            unplaced_vm_periods = state["unplaced_vm_periods"]
            energy_j = state["energy_j"]
            migrations = state["migrations"]
            active_counts = list(state["active_counts"])
            placements = list(state["placements"])
            infos = list(state["infos"])
            previous_placement = state["previous_placement"]
            audit_events = list(state["audit_events"])
            last_audit_energy_j = state["last_audit_energy_j"]

    for period in range(start_period, total_periods):
        window = fine_traces.slice((period - 1) * samples_per_period, period * samples_per_period)
        if config.oracle and hasattr(approach, "prime_oracle"):
            upcoming = fine_traces.slice(
                period * samples_per_period, (period + 1) * samples_per_period
            )
            approach.prime_oracle(upcoming.references())
        decision = approach.decide(window)
        placement = decision.placement
        if placement.num_servers > num_servers:
            raise ValueError(
                f"{approach.name} used {placement.num_servers} servers, fleet has {num_servers}"
            )
        start = period * samples_per_period
        stop = start + samples_per_period
        frequencies = decision.frequencies
        if schedule is not None:
            # Fault mode: the approach stays fault-oblivious; the engine
            # re-places the failed servers' VMs after the decision (see
            # repro.sim.faults for the evacuation contract) and charges
            # one migration per evacuee.  VMs with no surviving host are
            # dropped for the period; their demand is accounted unserved.
            placement, frequencies, moved, unplaced = evacuate_fleet(
                placement,
                frequencies,
                schedule.failed_at(period),
                decision.predicted_references,
                spec.n_cores,
                num_servers,
                ladder,
                approach,
            )
            evacuations += len(moved)
            evacuation_energy_j += (
                config.faults.migration.energy_per_migration_j * len(moved)
            )
            if unplaced:
                rows = [name_to_row[vm] for vm in unplaced]
                unserved_core_s += float(matrix[rows, start:stop].sum()) * fine_traces.period_s
                unplaced_vm_periods += len(unplaced)
        placements.append(placement)
        infos.append(dict(decision.info))
        migrations += placement.migrations_from(previous_placement)
        previous_placement = placement
        active_counts.append(placement.num_active_servers)
        # Per-server demand in one pass: gather every VM's samples once,
        # grouped by server, and reduce each group with np.add.reduceat —
        # a single buffered reduction for the whole fleet.  The reduceat
        # output rows correspond directly to the (sorted) active servers.
        vm_rows = np.array([name_to_row[vm] for vm in placement.vm_ids], dtype=np.intp)
        server_rows = np.array(
            [placement.server_of(vm) for vm in placement.vm_ids], dtype=np.intp
        )
        if vm_rows.size:
            grouping = np.argsort(server_rows, kind="stable")
            sorted_servers = server_rows[grouping]
            group_starts = np.flatnonzero(np.r_[True, np.diff(sorted_servers) > 0])
            active = sorted_servers[group_starts]
            demand = np.add.reduceat(
                matrix[vm_rows[grouping], start:stop], group_starts, axis=0
            )
        else:
            active = np.empty(0, dtype=np.intp)
            demand = np.empty((0, samples_per_period), dtype=float)
        num_active = active.size

        # Suspended servers: one bulk inactive record for the whole fleet.
        inactive_mask = np.ones(num_servers, dtype=bool)
        inactive_mask[active] = False
        residency.record_matrix(
            np.zeros((0, num_levels), dtype=np.int64),
            server_indices=np.empty(0, dtype=np.intp),
            inactive_samples=samples_per_period,
            inactive_indices=np.flatnonzero(inactive_mask),
        )
        if num_active:
            # Frequency plan for all active servers at once: placement-time
            # static levels, then (dynamic mode) interval peaks quantized
            # against the ladder in one batched reduction.  Everything runs
            # in ladder-index space; the static mode never materialises a
            # per-sample frequency matrix at all (one level per server).
            static_freqs = np.full(num_active, ladder.fmax_ghz, dtype=float)
            for row, server_index in enumerate(active):
                setting = frequencies.get(int(server_index))
                if setting is not None:
                    static_freqs[row] = setting.freq_ghz
            static_idx = ladder.index_array(static_freqs)

            counts = np.zeros((num_active, num_levels), dtype=np.int64)
            if config.dvfs_mode == "static":
                level_idx = None
                capacity = (spec.n_cores * static_freqs / spec.fmax_ghz)[:, None]
                counts[np.arange(num_active), static_idx] = samples_per_period
                idle = idle_w[static_idx][:, None]
                delta = delta_w[static_idx][:, None]
            else:
                level_idx = policy.choose_series_indices(
                    demand, ladder, spec.n_cores, static_idx
                )
                freqs = ladder.levels_array[level_idx]
                capacity = spec.n_cores * freqs / spec.fmax_ghz
                flat = (np.arange(num_active)[:, None] * num_levels + level_idx).ravel()
                counts.ravel()[:] = np.bincount(flat, minlength=num_active * num_levels)
                idle = idle_w[level_idx]
                delta = delta_w[level_idx]

            if schedule is not None:
                # Stragglers: a degraded server delivers only a fraction of
                # the capacity its chosen frequency implies for this period.
                # Accounting-level only — the v/f plan itself is unaware.
                scale = schedule.scale_at(period)[active]
                if scale.min() < 1.0:
                    capacity = capacity * scale[:, None]

            # Violation accounting: one boolean reduction for the fleet.
            violation[period - 1, active] = violating_samples(demand, capacity).mean(
                axis=1
            )
            residency.record_matrix(counts, server_indices=active)

            # Busy-fraction power for the whole fleet in one batched
            # evaluation: ``idle_w + (busy_w - idle_w) * busy`` with the
            # per-level wattages gathered by ladder index.
            busy = np.minimum(demand / capacity, 1.0)
            power = idle + delta * busy
            row_sums = power.sum(axis=1)

            # Energy accumulation, preserving the scalar engine's exact
            # order: servers ascending, levels ascending, one masked pairwise
            # sum per (server, level).  A full-period level (always, in
            # static mode) reuses the precomputed row sum — same pairwise
            # reduction, no masking pass.
            for row in range(num_active):
                for level in range(num_levels):
                    count = counts[row, level]
                    if count == 0:
                        continue
                    subtotal = (
                        row_sums[row]
                        if count == samples_per_period
                        else power[row, level_idx[row] == level].sum()
                    )
                    energy_j += float(subtotal) * fine_traces.period_s

        if checkpoint_policy is not None and period % checkpoint_policy.every_periods == 0:
            # Audit *before* persisting: a corrupted accumulator must
            # never be checkpointed as if it were healthy.  Degrade-mode
            # rebuilds mutate the approach, so the state captured below
            # is the post-repair state.
            if checkpoint_policy.audit:
                findings = _audit.audit_replay_state(
                    period=period,
                    samples_per_period=samples_per_period,
                    violation=violation,
                    residency=residency,
                    energy_j=energy_j,
                    previous_energy_j=last_audit_energy_j,
                    counters={
                        "migrations": migrations,
                        "evacuations": evacuations,
                        "unserved_core_s": unserved_core_s,
                        "unplaced_vm_periods": unplaced_vm_periods,
                    },
                    approach=approach,
                )
                audit_events.extend(
                    _audit.apply_policy(
                        findings, checkpoint_policy.on_violation, approach, period
                    )
                )
                last_audit_energy_j = energy_j
            state = {
                "evacuations": evacuations,
                "evacuation_energy_j": evacuation_energy_j,
                "unserved_core_s": unserved_core_s,
                "unplaced_vm_periods": unplaced_vm_periods,
                "violation": violation.copy(),
                "residency": residency.snapshot(),
                "energy_j": energy_j,
                "migrations": migrations,
                "active_counts": list(active_counts),
                "placements": list(placements),
                "infos": [dict(info) for info in infos],
                "previous_placement": previous_placement,
                "audit_events": list(audit_events),
                "last_audit_energy_j": last_audit_energy_j,
            }
            meta = {
                "next_period": period + 1,
                "total_periods": total_periods,
                "samples_per_period": samples_per_period,
                "num_servers": int(num_servers),
                "schedule_sha256": (
                    schedule.content_hash() if schedule is not None else None
                ),
                "approach_class": type(approach).__qualname__,
            }
            save_run_state(checkpoint_policy, period, fingerprint, meta, state, approach)

    duration_s = measured_periods * samples_per_period * fine_traces.period_s
    fault_stats = None
    if schedule is not None:
        # Evacuation energy joins the fleet total only in fault mode, so
        # the fault-free accumulation stays bit-identical.
        energy_j += evacuation_energy_j
        fault_stats = FaultStats(
            evacuations=evacuations,
            migration_energy_j=evacuation_energy_j,
            unserved_demand_core_s=unserved_core_s,
            unplaced_vm_periods=unplaced_vm_periods,
            failed_server_periods=schedule.failed_server_periods(first_period=1),
        )
    return ReplayResult(
        approach_name=approach.name,
        period_s=config.tperiod_s,
        samples_per_period=samples_per_period,
        violation_ratio=violation,
        energy_j=energy_j,
        avg_power_w=energy_j / duration_s,
        residency=residency,
        placements=tuple(placements),
        migrations=migrations,
        mean_active_servers=float(np.mean(active_counts)),
        info_per_period=tuple(infos),
        faults=fault_stats,
        audit_events=tuple(audit_events),
    )
