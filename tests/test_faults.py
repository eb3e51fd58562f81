"""Tests for the fault-injection layer (repro.sim.faults + evacuation)."""

from __future__ import annotations

import dataclasses
import pickle
from functools import partial

import numpy as np
import pytest

from repro.core.allocation import AllocationConfig, CorrelationAwareAllocator
from repro.core.correlation import CostMatrix
from repro.core.manager import ManagerConfig, PowerManager
from repro.core.placement import Placement
from repro.core.server_cost import prospective_server_cost
from repro.core.sharding import ShardedAllocator, ShardingConfig, shard_population
from repro.infrastructure.dvfs import FrequencyLadder
from repro.infrastructure.server import XEON_E5410
from repro.sim.approaches import BfdApproach, ProposedApproach
from repro.sim.engine import ReplayConfig, replay
from repro.sim.faults import FaultConfig, FaultSchedule, evacuate_fleet
from repro.sim.runner import Scenario, run_scenarios
from repro.traces.trace import TraceSet, UtilizationTrace

SPEC = XEON_E5410
LADDER = FrequencyLadder(SPEC.freq_levels_ghz)


def _traces(seed: int = 7, num_vms: int = 12, samples: int = 240) -> TraceSet:
    rng = np.random.default_rng(seed)
    return TraceSet(
        UtilizationTrace(rng.uniform(0.2, 3.0, samples), 60.0, name=f"vm{i:02d}")
        for i in range(num_vms)
    )


def build_population(seed: int) -> TraceSet:
    """Module-level builder so scenarios stay picklable."""
    return _traces(seed)


class TestFaultConfig:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultConfig(crash_rate=1.5)
        with pytest.raises(ValueError, match="crash_rate"):
            FaultConfig(crash_rate=-0.1)
        with pytest.raises(ValueError, match="degraded_rate"):
            FaultConfig(degraded_rate=2.0)
        with pytest.raises(ValueError, match="mean_downtime"):
            FaultConfig(mean_downtime_periods=-1.0)

    def test_rejects_bad_capacity_factor(self):
        with pytest.raises(ValueError, match="degraded_capacity_factor"):
            FaultConfig(degraded_capacity_factor=0.0)
        with pytest.raises(ValueError, match="degraded_capacity_factor"):
            FaultConfig(degraded_capacity_factor=1.5)

    def test_rejects_unknown_layout(self):
        with pytest.raises(ValueError, match="schedule_layout"):
            FaultConfig(schedule_layout="v99")


class TestFaultSchedule:
    def test_same_seed_same_schedule(self):
        config = FaultConfig(seed=11, crash_rate=0.3, degraded_rate=0.2)
        a = FaultSchedule.build(config, 8, 24)
        b = FaultSchedule.build(config, 8, 24)
        assert np.array_equal(a.failed, b.failed)
        assert np.array_equal(a.capacity_scale, b.capacity_scale)

    def test_different_seed_different_schedule(self):
        a = FaultSchedule.build(FaultConfig(seed=1, crash_rate=0.5), 8, 24)
        b = FaultSchedule.build(FaultConfig(seed=2, crash_rate=0.5), 8, 24)
        assert not np.array_equal(a.failed, b.failed)

    def test_zero_rates_draw_nothing(self):
        schedule = FaultSchedule.build(
            FaultConfig(crash_rate=0.0, degraded_rate=0.0), 5, 10
        )
        assert not schedule.failed.any()
        assert (schedule.capacity_scale == 1.0).all()
        assert schedule.failed_server_periods() == 0

    def test_certain_crash_fails_everything(self):
        schedule = FaultSchedule.build(FaultConfig(crash_rate=1.0), 4, 6)
        assert schedule.failed.all()

    def test_stragglers_never_overlap_failures(self):
        schedule = FaultSchedule.build(
            FaultConfig(seed=3, crash_rate=0.4, degraded_rate=0.6), 10, 30
        )
        degraded = schedule.capacity_scale < 1.0
        assert not (degraded & schedule.failed).any()
        assert degraded.any()  # rate 0.6 over 300 cells: astronomically sure

    def test_downtime_extends_failures(self):
        # Mean downtime 50 periods with certain crash at period 0: almost
        # every server stays down well past the crash period.
        schedule = FaultSchedule.build(
            FaultConfig(seed=0, crash_rate=0.2, mean_downtime_periods=50.0), 6, 20
        )
        per_period = schedule.failed.sum(axis=1)
        assert per_period[-1] >= per_period[0]

    def test_first_period_excluded_from_stats(self):
        schedule = FaultSchedule.build(FaultConfig(crash_rate=1.0), 3, 5)
        assert schedule.failed_server_periods() == 15
        assert schedule.failed_server_periods(first_period=1) == 12

    def test_arrays_are_read_only(self):
        schedule = FaultSchedule.build(FaultConfig(), 3, 3)
        with pytest.raises(ValueError):
            schedule.failed[0, 0] = True

    def test_schedule_independent_of_trace_content(self):
        """The schedule is a pure function of (config, geometry)."""
        config = FaultConfig(seed=5, crash_rate=0.3, degraded_rate=0.1)
        # _traces(): 240 samples x 60 s = 4 one-hour placement periods.
        reference = FaultSchedule.build(config, 6, 4)
        # Replays over *different* trace populations with the same
        # geometry see the same failure timeline.
        for seed in (1, 2):
            traces = _traces(seed=seed)
            result = replay(
                traces,
                SPEC,
                6,
                BfdApproach(SPEC.n_cores, SPEC.freq_levels_ghz),
                ReplayConfig(tperiod_s=3600.0, faults=config),
            )
            assert result.faults.failed_server_periods == int(
                reference.failed[1:].sum()
            )


def _flat_placement() -> tuple[Placement, dict[str, float]]:
    refs = {"a": 6.0, "b": 5.0, "c": 3.0, "d": 2.0, "e": 1.0}
    placement = Placement(
        {"a": 0, "b": 1, "c": 0, "d": 2, "e": 2}, num_servers=4
    )
    return placement, refs


class TestEvacuateFleet:
    def test_no_failures_is_identity(self):
        placement, refs = _flat_placement()
        freqs = {}
        out_p, out_f, moved, unplaced = evacuate_fleet(
            placement, freqs, np.zeros(4, dtype=bool), refs, 8, 4, LADDER
        )
        assert out_p is placement and out_f is freqs
        assert moved == () and unplaced == ()

    def test_evacuees_leave_failed_servers(self):
        placement, refs = _flat_placement()
        failed = np.array([True, False, False, False])
        out_p, _, moved, unplaced = evacuate_fleet(
            placement, {}, failed, refs, 8, 4, LADDER
        )
        assert sorted(moved) == ["a", "c"]
        assert unplaced == ()
        assert all(out_p.server_of(vm) != 0 for vm in moved)
        # Untouched VMs keep their servers, and the assignment preserves
        # the original VM order (the engine's demand-gather contract).
        assert out_p.server_of("b") == 1 and out_p.server_of("d") == 2
        assert list(out_p.assignment) == list(placement.assignment)

    def test_best_fit_prefers_tightest_survivor(self):
        # Server 1 has 3 cores free, server 2 has 5; the 3-core evacuee
        # best-fits into server 1.
        placement, refs = _flat_placement()
        failed = np.array([False, False, False, False])
        placement = Placement({"b": 1, "c": 0, "d": 2}, num_servers=3)
        refs = {"b": 5.0, "c": 3.0, "d": 3.0}
        out_p, _, moved, _ = evacuate_fleet(
            placement, {}, np.array([True, False, False]), refs, 8, 3, LADDER
        )
        assert moved == ("c",)
        assert out_p.server_of("c") == 1

    def test_overcommit_rather_than_drop(self):
        placement = Placement({"a": 0, "b": 1}, num_servers=2)
        refs = {"a": 7.0, "b": 6.0}
        out_p, _, moved, unplaced = evacuate_fleet(
            placement, {}, np.array([True, False]), refs, 8, 2, LADDER
        )
        assert moved == ("a",) and unplaced == ()
        assert out_p.server_of("a") == 1  # 13 cores committed on an 8-core box

    def test_no_survivors_leaves_vms_unplaced(self):
        placement = Placement({"a": 0, "b": 1}, num_servers=2)
        refs = {"a": 2.0, "b": 2.0}
        out_p, _, moved, unplaced = evacuate_fleet(
            placement, {}, np.array([True, True]), refs, 8, 2, LADDER
        )
        assert moved == () and sorted(unplaced) == ["a", "b"]
        assert out_p.num_vms == 0

    def test_receiver_frequency_bumped_never_lowered(self):
        placement = Placement({"a": 0, "b": 1}, num_servers=2)
        refs = {"a": 6.0, "b": 1.0}
        low = LADDER.quantize_up(0.1)
        freqs = {
            0: _setting(2.3),
            1: _setting(low),
        }
        _, out_f, _, _ = evacuate_fleet(
            placement, freqs, np.array([True, False]), refs, 8, 2, LADDER
        )
        assert 0 not in out_f  # failed servers drop out of the plan
        assert out_f[1].freq_ghz >= (6.0 + 1.0) / 8 * LADDER.fmax_ghz / LADDER.fmax_ghz
        # peak-sum target: (6+1)/8 * fmax, quantized up
        expected = LADDER.quantize_up((6.0 + 1.0) / 8 * LADDER.fmax_ghz)
        assert out_f[1].freq_ghz == expected

    def test_buggy_hook_is_rejected(self):
        class BadHook:
            def evacuate(self, placement, failed_servers, references, num_servers):
                return placement  # leaves evacuees on the failed server

        placement = Placement({"a": 0, "b": 1}, num_servers=2)
        refs = {"a": 2.0, "b": 2.0}
        with pytest.raises(ValueError, match="failed servers"):
            evacuate_fleet(
                placement, {}, np.array([True, False]), refs, 8, 2, LADDER,
                approach=BadHook(),
            )


def _setting(freq: float):
    from repro.infrastructure.dvfs import StaticVfSetting

    return StaticVfSetting(freq_ghz=freq, target_ghz=freq)


def _oracle_evacuate(placement, failed, refs, cost_fn, capacity, fleet, resolution):
    """Scalar transcription of the documented evacuation rule.

    Module-level: the exact allocator and the sharded tier document the
    *same* rule (the sharded one prices pairs through its cost view), so
    both suites pin themselves against this one transcription.
    """
    failed = set(failed)
    members = {s: [] for s in range(fleet) if s not in failed}
    remaining = {s: capacity for s in members}
    for vm, server in placement.assignment.items():
        if server not in failed:
            members[server].append(vm)
            remaining[server] -= refs[vm]
    evacuees = sorted(
        (vm for vm, s in placement.assignment.items() if s in failed),
        key=lambda vm: (-refs[vm], vm),
    )
    targets = {}
    for vm in evacuees:
        demand = refs[vm]
        best_key, best = None, None
        for server in sorted(members):
            if demand > remaining[server] + 1e-12:
                continue
            if members[server]:
                cost = prospective_server_cost(members[server], vm, refs, cost_fn)
                bucketed = (
                    round(cost / resolution) * resolution if resolution > 0 else cost
                )
                key = (0, -bucketed, -remaining[server], server)
            else:
                key = (1, 0.0, 0.0, server)
            if best_key is None or key < best_key:
                best_key, best = key, server
        if best is None and members:
            best = min(members, key=lambda s: (-remaining[s], s))
        if best is None:
            continue
        members[best].append(vm)
        remaining[best] -= demand
        targets[vm] = best
    assignment = {}
    for vm, server in placement.assignment.items():
        if server in failed:
            if vm in targets:
                assignment[vm] = targets[vm]
        else:
            assignment[vm] = server
    return assignment


class TestAllocatorEvacuate:
    """The incremental dense path against a scalar transcription."""

    def _population(self, seed: int = 0, num_vms: int = 10):
        traces = _traces(seed=seed, num_vms=num_vms, samples=120)
        matrix = CostMatrix.from_traces(traces)
        rng = np.random.default_rng(seed + 100)
        refs = {name: float(rng.uniform(0.5, 4.0)) for name in traces.names}
        return traces, matrix, refs

    @pytest.mark.parametrize("failed", [(0,), (1, 3), (0, 2, 4)])
    def test_matches_scalar_oracle(self, failed):
        traces, matrix, refs = self._population()
        allocator = CorrelationAwareAllocator()
        placement = allocator.allocate(
            list(traces.names), refs, matrix.cost, 8, max_servers=6,
            cost_array=matrix.as_array(), name_index=matrix.name_index,
        )
        failed = tuple(s for s in failed if s < placement.num_servers)
        amended = allocator.evacuate(
            placement, failed, refs, 8, 6,
            cost_array=matrix.as_array(), name_index=matrix.name_index,
        )
        expected = _oracle_evacuate(
            placement, failed, refs, matrix.cost, 8.0, 6,
            AllocationConfig().cost_resolution,
        )
        assert amended.assignment == expected
        assert all(amended.server_of(vm) not in failed for vm in amended.vm_ids)

    def test_no_evacuees_returns_same_placement(self):
        traces, matrix, refs = self._population()
        allocator = CorrelationAwareAllocator()
        placement = allocator.allocate(
            list(traces.names), refs, matrix.cost, 8, max_servers=6,
            cost_array=matrix.as_array(), name_index=matrix.name_index,
        )
        empty = [s for s in range(6) if s not in set(placement.assignment.values())]
        if not empty:
            pytest.skip("population filled every server")
        amended = allocator.evacuate(
            placement, (empty[0],), refs, 8, 6,
            cost_array=matrix.as_array(), name_index=matrix.name_index,
        )
        assert amended is placement

    def test_validates_inputs(self):
        traces, matrix, refs = self._population(num_vms=4)
        allocator = CorrelationAwareAllocator()
        placement = Placement({name: 0 for name in traces.names}, num_servers=4)
        with pytest.raises(ValueError, match="n_cores"):
            allocator.evacuate(
                placement, (0,), refs, 0,
                cost_array=matrix.as_array(), name_index=matrix.name_index,
            )
        with pytest.raises(ValueError, match="num_servers"):
            allocator.evacuate(
                placement, (0,), refs, 8, 2,
                cost_array=matrix.as_array(), name_index=matrix.name_index,
            )
        with pytest.raises(ValueError, match="missing references"):
            allocator.evacuate(
                placement, (0,), {}, 8,
                cost_array=matrix.as_array(), name_index=matrix.name_index,
            )


class TestShardedEvacuate:
    """Evacuation through the sharded tier: the same rule as the exact path."""

    def _sharded_population(self, seed: int = 31, num_vms: int = 24):
        window = _traces(seed=seed, num_vms=num_vms, samples=120)
        rng = np.random.default_rng(seed + 100)
        refs = {name: float(rng.uniform(0.5, 4.0)) for name in window.names}
        return window, refs

    def test_cross_shard_evacuation_matches_scalar_oracle(self):
        """Fail every server hosting shard-0 VMs; the re-placement of the
        evacuees onto other shards' bins must follow the documented rule,
        with pair costs priced through the sharded cost view."""
        window, refs = self._sharded_population()
        config = ShardingConfig(num_shards=3)
        allocator = ShardedAllocator(sharding=config)
        placement = allocator.allocate(window, refs, 8)

        labels = shard_population(window, config)
        by_name = dict(zip(window.names, labels, strict=True))
        failed = sorted(
            {placement.assignment[vm] for vm in window.names if by_name[vm] == 0}
        )
        assert failed and len(failed) < placement.num_servers

        amended = allocator.evacuate(placement, failed, refs, 8)
        expected = _oracle_evacuate(
            placement, failed, refs, allocator.cost_view().cost, 8.0,
            placement.num_servers, allocator.config.cost_resolution,
        )
        assert dict(amended.assignment) == expected
        assert all(amended.server_of(vm) not in failed for vm in amended.vm_ids)

    def test_sharded_replay_under_faults(self):
        traces = _traces()
        sharded = partial(
            ProposedApproach,
            allocator="sharded",
            sharding=ShardingConfig(num_shards=2),
            horizon_periods=1,
        )
        result = _fault_replay(traces, FaultConfig(seed=3, crash_rate=0.2), sharded)
        assert result.faults.evacuations > 0

    def test_sharded_zero_rate_is_bit_identical(self):
        traces = _traces()
        sharded = partial(
            ProposedApproach,
            allocator="sharded",
            sharding=ShardingConfig(num_shards=2),
            horizon_periods=1,
        )
        base = _fault_replay(traces, None, sharded)
        zero = _fault_replay(
            traces, FaultConfig(crash_rate=0.0, degraded_rate=0.0), sharded
        )
        assert zero.faults.evacuations == 0
        stripped = dataclasses.replace(zero, faults=None)
        assert pickle.dumps(stripped) == pickle.dumps(base)


class TestManagerEvacuate:
    def test_amended_decision_avoids_failed_servers(self):
        traces = _traces(num_vms=8, samples=120)
        manager = PowerManager(
            ManagerConfig(
                n_cores=8,
                freq_levels_ghz=SPEC.freq_levels_ghz,
                max_servers=6,
                default_reference=4.0,
            )
        )
        decision = manager.decide(traces)
        failed = decision.placement.active_servers[:1]
        amended = manager.evacuate(decision, failed)
        assert all(
            amended.placement.server_of(vm) not in failed
            for vm in amended.placement.vm_ids
        )
        assert set(amended.frequencies) == set(amended.placement.active_servers)
        assert amended.predicted_references == decision.predicted_references


def _fault_replay(traces, faults, approach_cls=ProposedApproach, servers=6):
    approach = approach_cls(SPEC.n_cores, SPEC.freq_levels_ghz)
    return replay(
        traces, SPEC, servers, approach, ReplayConfig(tperiod_s=3600.0, faults=faults)
    )


class TestEngineFaultIntegration:
    def test_zero_rate_schedule_is_bit_identical(self):
        """The hard invariant: faults disabled == zero-rate schedule."""
        traces = _traces()
        base = _fault_replay(traces, None)
        zero = _fault_replay(traces, FaultConfig(crash_rate=0.0, degraded_rate=0.0))
        assert zero.faults.evacuations == 0
        assert zero.faults.failed_server_periods == 0
        stripped = dataclasses.replace(zero, faults=None)
        assert pickle.dumps(stripped) == pickle.dumps(base)

    def test_migration_energy_matches_model(self):
        traces = _traces()
        config = FaultConfig(seed=3, crash_rate=0.2)
        result = _fault_replay(traces, config)
        stats = result.faults
        assert stats.evacuations > 0
        assert stats.migration_energy_j == pytest.approx(
            stats.evacuations * config.migration.energy_per_migration_j
        )
        # The charged energy is part of the reported total.
        base = _fault_replay(traces, None)
        assert result.energy_j != base.energy_j

    def test_total_fleet_loss_reports_unserved_demand(self):
        traces = _traces(num_vms=4)
        result = _fault_replay(
            traces, FaultConfig(crash_rate=1.0, mean_downtime_periods=0.0), servers=2
        )
        stats = result.faults
        assert stats.unplaced_vm_periods > 0
        assert stats.unserved_demand_core_s > 0.0

    def test_greedy_fallback_approaches_work(self):
        traces = _traces()
        result = _fault_replay(traces, FaultConfig(seed=3, crash_rate=0.2), BfdApproach)
        assert result.faults.evacuations > 0

    def test_faulty_replay_identical_across_worker_counts(self):
        config = FaultConfig(seed=9, crash_rate=0.15, degraded_rate=0.1)
        scenarios = [
            Scenario(
                name=name,
                approach_factory=partial(
                    BfdApproach, SPEC.n_cores, SPEC.freq_levels_ghz, max_servers=6
                ),
                spec=SPEC,
                num_servers=6,
                replay=ReplayConfig(tperiod_s=3600.0, faults=config),
                trace_builder=partial(build_population, seed),
            )
            for seed, name in ((1, "s1"), (2, "s2"))
        ]
        serial = run_scenarios(scenarios, workers=1)
        parallel = run_scenarios(scenarios, workers=2)
        # Per-result pickles: a list-level dump would also compare pickle
        # memo layout (object sharing across results), not just values.
        assert [pickle.dumps(r) for r in serial] == [pickle.dumps(r) for r in parallel]
        assert all(r.faults is not None for r in serial)
