"""Tests for repro.core.correlation — the Eqn-1 cost and its matrices."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import (
    CostMatrix,
    NEUTRAL_COST,
    StreamingCostMatrix,
    pearson_cost_matrix,
)
from repro.traces.trace import ReferenceSpec, TraceSet, UtilizationTrace

demand_arrays = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=40
)


class TestCostMatrixKnownValues:
    def test_anti_correlated_pair_costs_two(self, anti_correlated_pair):
        matrix = CostMatrix.from_traces(anti_correlated_pair)
        assert matrix.cost("a", "b") == pytest.approx(2.0)

    def test_fully_correlated_pair_costs_one(self, correlated_pair):
        matrix = CostMatrix.from_traces(correlated_pair)
        assert matrix.cost("a", "b") == pytest.approx(1.0)

    def test_hand_computed_intermediate(self):
        a = UtilizationTrace([1.0, 2.0, 3.0, 2.0, 1.0], 1.0, "a")
        b = UtilizationTrace([3.0, 2.0, 1.0, 2.0, 3.0], 1.0, "b")
        matrix = CostMatrix.from_traces(TraceSet([a, b]))
        # joint is flat 4.0; (3 + 3) / 4 = 1.5
        assert matrix.cost("a", "b") == pytest.approx(1.5)

    def test_diagonal_is_neutral(self, correlated_pair):
        matrix = CostMatrix.from_traces(correlated_pair)
        assert matrix.cost("a", "a") == NEUTRAL_COST

    def test_symmetry(self, four_vm_traces):
        matrix = CostMatrix.from_traces(four_vm_traces)
        arr = matrix.as_array()
        assert np.allclose(arr, arr.T)

    def test_idle_pair_is_neutral(self):
        a = UtilizationTrace([0.0, 0.0], 1.0, "a")
        b = UtilizationTrace([0.0, 0.0], 1.0, "b")
        matrix = CostMatrix.from_traces(TraceSet([a, b]))
        assert matrix.cost("a", "b") == NEUTRAL_COST

    def test_references_exposed(self, correlated_pair):
        matrix = CostMatrix.from_traces(correlated_pair)
        assert matrix.references() == {"a": 4.0, "b": 2.0}
        assert matrix.reference("a") == 4.0

    def test_unknown_name_rejected(self, correlated_pair):
        matrix = CostMatrix.from_traces(correlated_pair)
        with pytest.raises(KeyError):
            matrix.cost("a", "zz")

    def test_cross_service_pairs_cost_more(self, four_vm_traces):
        matrix = CostMatrix.from_traces(four_vm_traces)
        assert matrix.cost("a1", "b1") > matrix.cost("a1", "a2") + 0.5

    def test_mean_offdiagonal(self, four_vm_traces):
        matrix = CostMatrix.from_traces(four_vm_traces)
        arr = matrix.as_array()
        expected = (arr.sum() - np.trace(arr)) / (4 * 3)
        assert matrix.mean_offdiagonal() == pytest.approx(expected)

    def test_percentile_reference_supported(self, four_vm_traces):
        matrix = CostMatrix.from_traces(four_vm_traces, ReferenceSpec(90.0))
        assert matrix.spec.percentile == 90.0
        assert matrix.cost("a1", "b1") > 0.0


class TestCostBoundsProperty:
    @settings(max_examples=60)
    @given(demand_arrays, demand_arrays)
    def test_peak_cost_lies_in_unit_to_two(self, xs, ys):
        n = min(len(xs), len(ys))
        traces = TraceSet(
            [
                UtilizationTrace(xs[:n], 1.0, "x"),
                UtilizationTrace(ys[:n], 1.0, "y"),
            ]
        )
        cost = CostMatrix.from_traces(traces).cost("x", "y")
        # Sub-additivity of the max: 1 <= cost <= 2 always (peak refs).
        assert 1.0 - 1e-9 <= cost <= 2.0 + 1e-9


class TestStreamingCostMatrix:
    def test_requires_unique_names(self):
        with pytest.raises(ValueError, match="unique"):
            StreamingCostMatrix(["a", "a"])

    def test_matches_exact_for_peak_reference(self, four_vm_traces):
        streaming = StreamingCostMatrix(four_vm_traces.names)
        for column in four_vm_traces.matrix.T:
            streaming.update(column)
        exact = CostMatrix.from_traces(four_vm_traces)
        assert np.allclose(streaming.as_array(), exact.as_array())
        assert streaming.references() == pytest.approx(exact.references())

    @settings(max_examples=30)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=3, max_size=3),
            min_size=2,
            max_size=30,
        )
    )
    def test_streaming_equals_batch_on_random_streams(self, rows):
        names = ("u", "v", "w")
        streaming = StreamingCostMatrix(names)
        streaming.extend(rows)
        traces = TraceSet(
            UtilizationTrace([row[i] for row in rows], 1.0, name)
            for i, name in enumerate(names)
        )
        exact = CostMatrix.from_traces(traces)
        assert np.allclose(streaming.as_array(), exact.as_array(), atol=1e-9)

    def test_percentile_mode_approximates_batch(self, rng):
        names = ("a", "b")
        streaming = StreamingCostMatrix(names, ReferenceSpec(90.0))
        data = rng.lognormal(0.0, 0.4, size=(4000, 2))
        streaming.extend(data)
        traces = TraceSet(
            UtilizationTrace(data[:, i], 1.0, name) for i, name in enumerate(names)
        )
        exact = CostMatrix.from_traces(traces, ReferenceSpec(90.0))
        assert streaming.cost("a", "b") == pytest.approx(exact.cost("a", "b"), rel=0.1)

    def test_update_validates_width_and_sign(self):
        streaming = StreamingCostMatrix(["a", "b"])
        with pytest.raises(ValueError, match="expected 2"):
            streaming.update([1.0])
        with pytest.raises(ValueError, match="finite"):
            streaming.update([1.0, -2.0])

    def test_value_before_samples_rejected(self):
        streaming = StreamingCostMatrix(["a", "b"])
        with pytest.raises(ValueError, match="no samples"):
            streaming.cost("a", "b")
        with pytest.raises(ValueError, match="no samples"):
            streaming.reference("a")

    def test_reset(self):
        streaming = StreamingCostMatrix(["a", "b"])
        streaming.update([1.0, 2.0])
        streaming.reset()
        assert streaming.count == 0

    def test_memory_is_sample_free(self):
        """The streaming matrix must not buffer samples (the paper's point)."""
        streaming = StreamingCostMatrix(["a", "b", "c"])
        for _ in range(10_000):
            streaming.update([1.0, 2.0, 3.0])
        # Only marker state exists: no attribute holds the stream.
        assert streaming.count == 10_000
        assert not hasattr(streaming, "_samples")


class TestPearsonCostMatrix:
    def test_shape_and_diagonal(self, four_vm_traces):
        matrix = pearson_cost_matrix(four_vm_traces)
        assert matrix.shape == (4, 4)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_detects_anticorrelation(self, four_vm_traces):
        matrix = pearson_cost_matrix(four_vm_traces)
        i = four_vm_traces.index_of("a1")
        j = four_vm_traces.index_of("b1")
        k = four_vm_traces.index_of("a2")
        assert matrix[i, j] < -0.9
        assert matrix[i, k] > 0.9

    @pytest.mark.parametrize("num_vms", [3, 40, 300])
    def test_exactly_symmetric(self, num_vms):
        """``corrcoef`` alone leaves last-bit asymmetries; the audited
        cost-matrix invariant requires exact symmetry."""
        rng = np.random.default_rng(num_vms)
        for _ in range(5):
            names = tuple(f"vm{i}" for i in range(num_vms))
            window = TraceSet.from_matrix(rng.uniform(0.0, 4.0, (num_vms, 60)), names, 5.0)
            matrix = pearson_cost_matrix(window)
            assert np.array_equal(matrix, matrix.T)
