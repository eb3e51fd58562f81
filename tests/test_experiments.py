"""Integration tests: every experiment driver reproduces its paper claim.

These run the ``fast`` variants (shrunk workloads) and assert the
*qualitative* shape of each table/figure — who wins, in which direction —
which is the reproduction contract.  The full-size runs live in
``benchmarks/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments import fig1, fig3, fig4, fig5, table1, table2
from repro.experiments.base import ExperimentResult


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1",
            "table1",
            "fig3",
            "fig4",
            "fig5",
            "table2",
            "fig6",
            "ablations",
            "qos_sweep",
            "robustness",
            "availability",
            "slo_frontier",
        }

    def test_render_contains_sections(self):
        result = table1.run()
        text = result.render()
        assert "[table1]" in text
        assert "-- table --" in text


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return fig1.run(fast=True)

    def test_isns_track_clients(self, result):
        assert result.data["corr_isn1_clients"] > 0.95
        assert result.data["corr_isn2_clients"] > 0.95

    def test_intra_cluster_correlation(self, result):
        assert result.data["corr_isn1_isn2"] > 0.9

    def test_imbalance_present(self, result):
        assert result.data["mean_abs_imbalance_cores"] > 0.1


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return table1.run()

    def test_four_corunner_rows(self, result):
        assert len(result.data["results"]) == 4

    def test_interference_negligible(self, result):
        assert result.data["max_ipc_delta_pct"] < 3.0
        assert result.data["max_mpki_delta_pct"] < 5.0


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return fig3.run(fast=True)

    def test_cost_is_lower_bound_of_slowdown(self, result):
        assert result.data["fraction_on_or_above"] >= 0.9

    def test_two_vm_groups_sit_on_the_line(self, result):
        assert result.data["pair_identity_gap"] == pytest.approx(0.0, abs=1e-9)

    def test_costs_in_valid_range(self, result):
        costs = result.data["costs"]
        assert np.all(costs >= 1.0 - 1e-9)
        assert np.all(costs <= 2.0 + 1e-9)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return fig4.run(fast=True)

    def test_sharing_lowers_peak(self, result):
        peaks = result.data["peaks"]
        assert peaks["Shared-UnCorr"] < peaks["Segregated"] + 1e-9

    def test_correlation_awareness_lowers_peak_further(self, result):
        peaks = result.data["peaks"]
        assert peaks["Shared-Corr"] < peaks["Shared-UnCorr"]

    def test_segregated_slices_saturate(self, result):
        assert result.data["peaks"]["Segregated"] == pytest.approx(1.0, abs=0.05)


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return fig5.run(fast=True)

    def test_sharing_beats_segregated(self, result):
        p90 = result.data["p90"]
        assert p90["Shared-UnCorr (2.1GHz)"][0] < p90["Segregated (2.1GHz)"][0]
        assert p90["Shared-UnCorr (2.1GHz)"][1] < p90["Segregated (2.1GHz)"][1]

    def test_correlation_awareness_beats_plain_sharing(self, result):
        p90 = result.data["p90"]
        assert p90["Shared-Corr (2.1GHz)"][0] < p90["Shared-UnCorr (2.1GHz)"][0]

    def test_low_frequency_stays_competitive(self, result):
        """Shared-Corr@1.9GHz must not exceed Shared-UnCorr@2.1GHz."""
        assert result.data["lowfreq_vs_uncorr_ratio"] < 1.1

    def test_frequency_drop_saves_power(self, result):
        assert result.data["frequency_power_saving_pct"] > 5.0


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return table2.run(fast=True)

    @staticmethod
    def _row(rows, name):
        return next(r for r in rows if r["approach"] == name)

    def test_proposed_saves_power_statically(self, result):
        rows = result.data["static_rows"]
        assert self._row(rows, "Proposed")["normalized_power"] < 0.97
        assert self._row(rows, "BFD")["normalized_power"] == pytest.approx(1.0)

    def test_pcp_tracks_bfd_power(self, result):
        rows = result.data["static_rows"]
        assert self._row(rows, "PCP")["normalized_power"] == pytest.approx(1.0, abs=0.03)

    def test_dynamic_power_gap_shrinks(self, result):
        static_gap = 1.0 - self._row(result.data["static_rows"], "Proposed")["normalized_power"]
        dynamic_gap = 1.0 - self._row(result.data["dynamic_rows"], "Proposed")["normalized_power"]
        assert dynamic_gap < static_gap

    def test_pcp_clustering_collapses_population(self, result):
        """Envelope clustering finds far fewer clusters than VMs.

        The full-size run degenerates to a single cluster in most periods
        (asserted by the table2 benchmark); the shrunk fast variant (16
        VMs, 4 ground-truth services) must still collapse the population
        rather than isolating every VM.
        """
        counts = result.data["pcp_cluster_counts"]
        assert all(1 <= c <= 5 for c in counts)


class TestQosSweepSaving:
    """The headline power-saving metric and its degenerate-input guard."""

    @staticmethod
    def _result(avg_power_w: float):
        from types import SimpleNamespace

        return SimpleNamespace(avg_power_w=avg_power_w)

    def test_nominal_saving(self):
        from repro.experiments.qos_sweep import _power_saving_pct

        results = {90.0: self._result(80.0), 100.0: self._result(100.0)}
        assert _power_saving_pct(results) == pytest.approx(20.0)

    def test_zero_peak_power_yields_nan_not_zerodivision(self):
        from repro.experiments.qos_sweep import _power_saving_pct

        results = {90.0: self._result(0.0), 100.0: self._result(0.0)}
        assert np.isnan(_power_saving_pct(results))

    def test_absent_endpoints_yield_nan_not_keyerror(self):
        from repro.experiments.qos_sweep import _power_saving_pct

        assert np.isnan(_power_saving_pct({}))
        assert np.isnan(_power_saving_pct({100.0: self._result(50.0)}))
        assert np.isnan(_power_saving_pct({90.0: self._result(50.0)}))


class TestPearsonAblation:
    """The Pearson ablation is Fig-2 + Eqn-4 over Pearson-derived costs.

    Pins :class:`~repro.experiments.ablations.PearsonProposedApproach`
    against the allocator and the frequency controller driven directly
    with :func:`~repro.experiments.ablations.pearson_dense_costs` and
    last-value predictions (the approach's default predictor).
    """

    N_CORES = 8
    LEVELS = (1.2, 1.6, 2.0, 2.3)

    @staticmethod
    def _window(rng, names, samples=60):
        from repro.traces.trace import TraceSet, UtilizationTrace

        # Three services sharing a demand shape, so Pearson costs vary.
        shapes = rng.uniform(0.2, 2.0, (3, samples))
        return TraceSet(
            UtilizationTrace(
                np.clip(shapes[i % 3] + rng.normal(0.0, 0.3, samples), 0.0, None),
                5.0,
                name,
            )
            for i, name in enumerate(names)
        )

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_allocator_on_pearson_costs(self, seed):
        from repro.core.allocation import CorrelationAwareAllocator
        from repro.core.vf_control import correlation_aware_frequency
        from repro.experiments.ablations import PearsonProposedApproach, pearson_dense_costs
        from repro.infrastructure.dvfs import FrequencyLadder

        rng = np.random.default_rng(seed)
        names = [f"vm{i:02d}" for i in range(14)]
        approach = PearsonProposedApproach(
            self.N_CORES, self.LEVELS, max_servers=14, default_reference=4.0
        )
        ladder = FrequencyLadder(self.LEVELS)
        for _ in range(3):
            window = self._window(rng, names)
            decision = approach.decide(window)

            dense = pearson_dense_costs(window)
            index = {name: i for i, name in enumerate(window.names)}

            def cost(a, b, dense=dense, index=index):
                return float(dense[index[a], index[b]])

            refs = window.references()
            expected = CorrelationAwareAllocator().allocate(
                list(window.names),
                refs,
                cost,
                self.N_CORES,
                14,
                cost_array=dense,
                name_index=index,
            )
            frequencies = {
                server: correlation_aware_frequency(
                    list(members), refs, cost, ladder, self.N_CORES
                )
                for server, members in expected.by_server().items()
            }
            assert dict(decision.placement.assignment) == dict(expected.assignment)
            assert decision.placement.num_servers == expected.num_servers
            assert decision.frequencies == frequencies
            assert decision.predicted_references == refs
