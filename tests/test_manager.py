"""Tests for repro.core.manager — the periodic power-management loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.manager import ManagerConfig, PowerManager
from repro.prediction.predictors import EwmaPredictor, LastValuePredictor
from repro.sim.approaches import ProposedApproach
from repro.traces.trace import TraceSet


@pytest.fixture
def config() -> ManagerConfig:
    return ManagerConfig(n_cores=8, freq_levels_ghz=(2.0, 2.3), default_reference=4.0)


class TestManagerConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ManagerConfig(n_cores=0, freq_levels_ghz=(2.0,))
        with pytest.raises(ValueError, match="non-negative"):
            ManagerConfig(n_cores=8, freq_levels_ghz=(2.0,), default_reference=-1.0)

    def test_sharded_rejects_a_multi_window_horizon(self):
        """The sharded decide never pushes the rolling horizon, so a
        horizon there would be silently ignored."""
        with pytest.raises(ValueError, match="horizon_periods=1"):
            ManagerConfig(
                n_cores=8, freq_levels_ghz=(2.0,), allocator="sharded", horizon_periods=3
            )
        ManagerConfig(n_cores=8, freq_levels_ghz=(2.0,), allocator="sharded", horizon_periods=1)
        ManagerConfig(n_cores=8, freq_levels_ghz=(2.0,), allocator="exact", horizon_periods=3)
        # ProposedApproach defaults to a 3-window horizon; the sharded
        # opt-in must say horizon_periods=1 rather than have it ignored.
        with pytest.raises(ValueError, match="horizon_periods=1"):
            ProposedApproach(8, (2.0,), allocator="sharded")
        ProposedApproach(8, (2.0,), allocator="sharded", horizon_periods=1)


class TestObservePredict:
    def test_history_accumulates(self, config, four_vm_traces):
        # The EWMA reads its whole history (history_window None), so
        # nothing is trimmed.
        manager = PowerManager(config, EwmaPredictor(default=4.0))
        observed = manager.observe(four_vm_traces)
        assert observed["a1"] == 3.0
        assert manager.history["a1"] == (3.0,)
        manager.observe(four_vm_traces)
        assert manager.history["a1"] == (3.0, 3.0)

    def test_last_value_history_stays_bounded(self, config, four_vm_traces):
        manager = PowerManager(config)
        first = manager.decide(four_vm_traces)
        for _ in range(19):
            decision = manager.decide(four_vm_traces)
            assert dict(decision.placement.assignment) == dict(first.placement.assignment)
        assert {vm: len(values) for vm, values in manager.history.items()} == {
            vm: 1 for vm in four_vm_traces.names
        }
        assert len(manager.snapshot()["refs"]["history"]["a1"]) == 1

    def test_predict_uses_default_without_history(self, config):
        manager = PowerManager(config)
        assert manager.predict(["ghost"]) == {"ghost": 4.0}

    def test_predict_last_value(self, config, four_vm_traces):
        manager = PowerManager(config)
        manager.observe(four_vm_traces)
        assert manager.predict(["a1"]) == {"a1": 3.0}

    def test_bad_window_is_rejected_before_any_history_write(self, config, four_vm_traces):
        """A NaN window through a frozen array never reaches the histories.

        The EWMA keeps its whole history, so one stored NaN would make
        every later decide raise, clean windows included.
        """
        manager = PowerManager(config, EwmaPredictor(default=4.0))
        manager.decide(four_vm_traces)
        before = manager.history
        matrix = four_vm_traces.matrix.copy()
        matrix[2, 1] = np.nan
        matrix.flags.writeable = False
        poisoned = TraceSet.from_matrix(matrix, four_vm_traces.names, 1.0)
        with pytest.raises(ValueError, match=r"references observed for: \['b1'\]"):
            manager.decide(poisoned)
        assert manager.history == before
        decision = manager.decide(four_vm_traces)
        assert set(decision.placement.assignment) == set(four_vm_traces.names)

    def test_reset_clears_history(self, config, four_vm_traces):
        manager = PowerManager(config)
        manager.observe(four_vm_traces)
        manager.reset()
        assert manager.history == {}


class TestDecide:
    def test_full_cycle(self, config, four_vm_traces):
        manager = PowerManager(config)
        decision = manager.decide(four_vm_traces)
        placement = decision.placement
        assert sorted(placement.vm_ids) == ["a1", "a2", "b1", "b2"]
        # Anti-correlated pairs (peak 3.0 each) pack into 2 servers and the
        # cost matrix is exposed for inspection.
        assert placement.num_active_servers == 2
        assert decision.estimated_servers == 2
        # a1+b1 is flat at 3.5, so the Eqn-1 cost is (3 + 3) / 3.5.
        assert decision.cost_matrix.cost("a1", "b1") == pytest.approx(6.0 / 3.5)

    def test_frequencies_cover_active_servers(self, config, four_vm_traces):
        manager = PowerManager(config)
        decision = manager.decide(four_vm_traces)
        assert set(decision.frequencies) == set(decision.placement.active_servers)
        for server in decision.placement.active_servers:
            assert decision.frequency_of(server) in config.freq_levels_ghz

    def test_mixed_pairs_get_discounted_frequency(self, config, four_vm_traces):
        """Cost-2.0 pairs of peak 3.0+3.0: Eqn 4 target = 6/8*2.3/2 < 2.0."""
        manager = PowerManager(config)
        decision = manager.decide(four_vm_traces)
        for server in decision.placement.active_servers:
            assert decision.frequency_of(server) == 2.0

    def test_respects_max_servers(self, four_vm_traces):
        config = ManagerConfig(
            n_cores=8, freq_levels_ghz=(2.0, 2.3), max_servers=2, default_reference=4.0
        )
        manager = PowerManager(config)
        decision = manager.decide(four_vm_traces)
        assert decision.placement.num_servers == 2

    def test_custom_predictor_is_used(self, config, four_vm_traces):
        manager = PowerManager(config, predictor=LastValuePredictor(default=9.0))
        decision = manager.decide(four_vm_traces)
        assert decision.predicted_references["a1"] == 3.0
