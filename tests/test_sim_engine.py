"""Tests for repro.sim.engine / metrics / results — the replay simulator."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.infrastructure.server import XEON_E5410
from repro.prediction.predictors import EwmaPredictor
from repro.sim.approaches import BfdApproach, PcpApproach, ProposedApproach
from repro.sim.engine import ReplayConfig, replay
from repro.sim.metrics import (
    FrequencyResidency,
    max_violation_pct,
    mean_violation_pct,
    period_violation_ratio,
    violating_samples,
)
from repro.sim.results import comparison_rows, normalized_power
from repro.traces.trace import TraceSet, UtilizationTrace


def periodic_traces(num_periods: int = 4, samples_per_period: int = 60) -> TraceSet:
    """Two anti-correlated VMs with a repeating per-period pattern."""
    n = num_periods * samples_per_period
    t = np.arange(n)
    phase = 2 * np.pi * t / samples_per_period
    a = 2.0 + 1.5 * np.sin(phase)
    b = 2.0 - 1.5 * np.sin(phase)
    return TraceSet(
        [UtilizationTrace(a, 5.0, "a"), UtilizationTrace(b, 5.0, "b")]
    )


class TestMetrics:
    def test_violating_samples(self):
        mask = violating_samples(np.array([7.0, 8.0, 9.0]), 8.0)
        assert list(mask) == [False, False, True]

    def test_capacity_array(self):
        mask = violating_samples(np.array([7.0, 7.0]), np.array([8.0, 6.0]))
        assert list(mask) == [False, True]

    def test_period_violation_ratio(self):
        assert period_violation_ratio(np.array([9.0, 7.0, 9.0, 7.0]), 8.0) == 0.5

    def test_max_and_mean_pct(self):
        ratios = np.array([[0.0, 0.1], [0.25, 0.05]])
        assert max_violation_pct(ratios) == 25.0
        assert mean_violation_pct(ratios) == pytest.approx(10.0)

    def test_empty(self):
        assert max_violation_pct(np.empty((0, 2))) == 0.0


class TestFrequencyResidency:
    def test_record_and_query(self):
        res = FrequencyResidency(2, (2.0, 2.3))
        res.record(0, 2.0, 10, active=True)
        res.record(0, 2.3, 30, active=True)
        res.record(1, 2.3, 5, active=False)
        assert res.counts(0) == {2.0: 10, 2.3: 30}
        assert res.fractions(0)[2.0] == 0.25
        assert res.inactive(1) == 5
        assert res.counts(1) == {2.0: 0, 2.3: 0}
        assert res.merged() == {2.0: 10, 2.3: 30}

    def test_unknown_level_rejected(self):
        res = FrequencyResidency(1, (2.0,))
        with pytest.raises(ValueError, match="not a tracked level"):
            res.record(0, 3.0, 1, active=True)

    def test_negative_count_rejected(self):
        res = FrequencyResidency(1, (2.0,))
        with pytest.raises(ValueError, match="non-negative"):
            res.record(0, 2.0, -1, active=True)

    def test_fractions_of_idle_server_are_zero(self):
        res = FrequencyResidency(1, (2.0, 2.3))
        assert res.fractions(0) == {2.0: 0.0, 2.3: 0.0}


class TestReplayValidation:
    def test_needs_two_periods(self):
        traces = periodic_traces(num_periods=1)
        approach = BfdApproach(8, (2.0, 2.3))
        with pytest.raises(ValueError, match="at least 2 periods"):
            replay(traces, XEON_E5410, 2, approach, ReplayConfig(tperiod_s=300.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(tperiod_s=0.0)
        with pytest.raises(ValueError):
            ReplayConfig(dvfs_mode="sometimes")
        with pytest.raises(ValueError):
            ReplayConfig(dvfs_interval_samples=0)
        with pytest.raises(ValueError):
            ReplayConfig(dvfs_headroom=0.9)


class TestReplayAccounting:
    @pytest.fixture
    def traces(self) -> TraceSet:
        return periodic_traces()

    def test_result_shape(self, traces):
        approach = BfdApproach(8, (2.0, 2.3), default_reference=4.0)
        result = replay(traces, XEON_E5410, 4, approach, ReplayConfig(tperiod_s=300.0))
        assert result.num_periods == 3  # first period is warm-up
        assert result.violation_ratio.shape == (3, 4)
        assert len(result.placements) == 3
        assert result.avg_power_w > 0
        assert result.energy_j == pytest.approx(result.avg_power_w * 3 * 300.0)

    def test_anti_correlated_pair_no_violations(self, traces):
        """a+b is flat at 4.0 < any capacity: no violations possible."""
        approach = ProposedApproach(8, (2.0, 2.3), default_reference=4.0)
        result = replay(traces, XEON_E5410, 4, approach, ReplayConfig(tperiod_s=300.0))
        assert result.max_violation_pct == 0.0

    def test_energy_matches_hand_computation_single_server(self):
        """One constant VM on one server: energy is closed-form."""
        n = 3 * 60
        traces = TraceSet([UtilizationTrace(np.full(n, 4.0), 5.0, "only")])
        approach = BfdApproach(8, (2.0, 2.3), default_reference=4.0)
        result = replay(traces, XEON_E5410, 1, approach, ReplayConfig(tperiod_s=300.0))
        # Static peak-sum target: 4/8*2.3 = 1.15 -> 2.0 GHz.
        busy = 4.0 / XEON_E5410.capacity_at(2.0)
        expected_power = XEON_E5410.power_model.power_w(busy, 2.0)
        assert result.avg_power_w == pytest.approx(expected_power, rel=1e-6)

    def test_residency_counts_total_samples(self, traces):
        approach = BfdApproach(8, (2.0, 2.3), default_reference=4.0)
        result = replay(traces, XEON_E5410, 4, approach, ReplayConfig(tperiod_s=300.0))
        total = sum(result.residency.merged().values())
        inactive = sum(result.residency.inactive(i) for i in range(4))
        assert total + inactive == 3 * 60 * 4

    def test_migrations_zero_for_stationary_input(self, traces):
        """Identical windows produce identical placements -> no migrations."""
        approach = BfdApproach(8, (2.0, 2.3), default_reference=4.0)
        result = replay(traces, XEON_E5410, 4, approach, ReplayConfig(tperiod_s=300.0))
        assert result.migrations == 0

    def test_dynamic_mode_adapts_frequency(self):
        """Low-demand second half of each period drops to the low level."""
        n = 3 * 120
        t = np.arange(n)
        demand = np.where((t % 120) < 60, 7.8, 1.0)
        traces = TraceSet([UtilizationTrace(demand, 5.0, "spiky")])
        approach = BfdApproach(8, (2.0, 2.3), default_reference=8.0)
        config = ReplayConfig(tperiod_s=600.0, dvfs_mode="dynamic", dvfs_interval_samples=12)
        result = replay(traces, XEON_E5410, 1, approach, config)
        counts = result.residency.counts(0)
        assert counts[2.0] > 0
        assert counts[2.3] > 0

    def test_static_mode_keeps_placement_frequency(self):
        n = 3 * 120
        t = np.arange(n)
        demand = np.where((t % 120) < 60, 7.8, 1.0)
        traces = TraceSet([UtilizationTrace(demand, 5.0, "spiky")])
        approach = BfdApproach(8, (2.0, 2.3), default_reference=8.0)
        result = replay(traces, XEON_E5410, 1, approach, ReplayConfig(tperiod_s=600.0))
        counts = result.residency.counts(0)
        # Peak-sum provisioning at peak 7.8 -> 2.3 GHz all period long.
        assert counts[2.0] == 0
        assert counts[2.3] == 2 * 120

    def test_fleet_bound_enforced(self):
        """Two 5-core VMs cannot share a server: a 1-server fleet fails."""
        from repro.core.allocation import CapacityError

        n = 3 * 60
        traces = TraceSet(
            [
                UtilizationTrace(np.full(n, 5.0), 5.0, "a"),
                UtilizationTrace(np.full(n, 5.0), 5.0, "b"),
            ]
        )
        approach_tight = BfdApproach(8, (2.0, 2.3), max_servers=1, default_reference=8.0)
        with pytest.raises(CapacityError):
            replay(traces, XEON_E5410, 1, approach_tight, ReplayConfig(tperiod_s=300.0))
        # Without the approach-side bound the engine itself rejects a
        # placement wider than the fleet.
        approach_free = BfdApproach(8, (2.0, 2.3), default_reference=8.0)
        with pytest.raises(ValueError, match="servers"):
            replay(traces, XEON_E5410, 1, approach_free, ReplayConfig(tperiod_s=300.0))


class TestResultsHelpers:
    def test_normalized_power_and_rows(self, rng):
        traces = periodic_traces()
        config = ReplayConfig(tperiod_s=300.0)
        results = [
            replay(traces, XEON_E5410, 4, BfdApproach(8, (2.0, 2.3), default_reference=4.0), config),
            replay(traces, XEON_E5410, 4, ProposedApproach(8, (2.0, 2.3), default_reference=4.0), config),
        ]
        norm = normalized_power(results, "BFD")
        assert norm["BFD"] == pytest.approx(1.0)
        assert norm["Proposed"] <= 1.0 + 1e-9
        rows = comparison_rows(results, "BFD")
        assert [row["approach"] for row in rows] == ["BFD", "Proposed"]

    def test_missing_baseline_rejected(self):
        traces = periodic_traces()
        result = replay(
            traces,
            XEON_E5410,
            4,
            BfdApproach(8, (2.0, 2.3), default_reference=4.0),
            ReplayConfig(tperiod_s=300.0),
        )
        with pytest.raises(KeyError):
            normalized_power([result], "PCP")


class TestPcpApproachIntegration:
    def test_reports_cluster_count(self):
        traces = periodic_traces()
        approach = PcpApproach(8, (2.0, 2.3), default_reference=4.0)
        result = replay(traces, XEON_E5410, 4, approach, ReplayConfig(tperiod_s=300.0))
        for info in result.info_per_period:
            assert info["num_clusters"] >= 1


class TestBadWindows:
    """A NaN window reaches every approach's one history keeper, which
    rejects it before any append: a stored NaN would make a full-history
    predictor (EWMA) raise on every later decide, clean windows included."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda ewma: BfdApproach(8, (2.0, 2.3), predictor=ewma, default_reference=4.0),
            lambda ewma: PcpApproach(
                8, (2.0, 2.3), predictor=ewma, peak_predictor=ewma, default_reference=4.0
            ),
            lambda ewma: ProposedApproach(8, (2.0, 2.3), predictor=ewma, default_reference=4.0),
        ],
        ids=["BFD", "PCP", "Proposed"],
    )
    def test_nan_window_is_rejected_and_history_kept(self, make):
        approach = make(EwmaPredictor(default=4.0))
        traces = periodic_traces(num_periods=3)
        clean = [traces.slice(p * 60, (p + 1) * 60) for p in range(3)]
        approach.decide(clean[0])
        before = pickle.dumps(approach.snapshot())

        matrix = clean[1].matrix.copy()
        matrix[1, 7] = np.nan
        matrix.flags.writeable = False  # trusted as is: from_matrix skips its check
        poisoned = TraceSet.from_matrix(matrix, clean[1].names, clean[1].period_s)
        with pytest.raises(ValueError, match=r"references observed for: \['b'\]"):
            approach.decide(poisoned)
        assert pickle.dumps(approach.snapshot()) == before

        decision = approach.decide(clean[2])
        assert set(decision.placement.assignment) == {"a", "b"}

    def test_pcp_checks_both_references_before_either_keeper_appends(self):
        """A lone ``+inf`` spoils only the peak reference; the off-peak
        (percentile) keeper must not record the window either."""
        ewma = EwmaPredictor(default=4.0)
        approach = PcpApproach(
            8, (2.0, 2.3), predictor=ewma, peak_predictor=ewma, default_reference=4.0
        )
        traces = periodic_traces(num_periods=2)
        keepers = (approach._offpeak_refs, approach._peak_refs)
        before = [pickle.dumps(keeper.snapshot()) for keeper in keepers]

        matrix = traces.slice(0, 60).matrix.copy()
        matrix[0, 7] = np.inf
        matrix.flags.writeable = False  # trusted as is: from_matrix skips its check
        poisoned = TraceSet.from_matrix(matrix, traces.names, traces.period_s)
        with pytest.raises(ValueError, match=r"references observed for: \['a'\]"):
            approach.decide(poisoned)
        assert [pickle.dumps(keeper.snapshot()) for keeper in keepers] == before

        decision = approach.decide(traces.slice(60, 120))
        assert set(decision.placement.assignment) == {"a", "b"}
