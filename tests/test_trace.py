"""Tests for repro.traces.trace — containers and reference policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces.trace import ReferenceSpec, TraceSet, UtilizationTrace

demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=60
)


class TestReferenceSpec:
    def test_default_is_peak(self):
        spec = ReferenceSpec()
        assert spec.percentile == 100.0
        assert spec.is_peak

    def test_of_peak(self):
        assert ReferenceSpec().of(np.array([1.0, 3.0, 2.0])) == 3.0

    def test_of_percentile(self):
        spec = ReferenceSpec(50.0)
        assert spec.of(np.array([1.0, 2.0, 3.0])) == 2.0
        assert not spec.is_peak

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSpec(0.0)
        with pytest.raises(ValueError):
            ReferenceSpec(101.0)

    def test_integer_hundred_normalizes_to_peak(self):
        spec = ReferenceSpec(100)
        assert spec.is_peak
        assert spec.percentile == 100.0
        assert isinstance(spec.percentile, float)
        assert spec == ReferenceSpec(100.0)
        assert spec.of(np.array([1.0, 3.0, 2.0])) == 3.0

    def test_float_noise_near_hundred_clamps_to_exact_peak(self):
        """Sweep arithmetic lands within rounding of 100; those values
        must take the np.max fast path, not a float-equality miss."""
        for value in (100.0 - 1e-10, 100.0 * (1.0 - 1e-12), np.float64(100.0)):
            spec = ReferenceSpec(value)
            assert spec.is_peak
            assert spec.percentile == 100.0
            assert spec.of(np.array([0.5, 4.0, 2.0])) == 4.0

    def test_genuine_percentiles_are_not_clamped(self):
        for value in (99.5, 99.9999, 90):
            spec = ReferenceSpec(value)
            assert not spec.is_peak
            assert spec.percentile == float(value)

    def test_clearly_out_of_range_still_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSpec(100.001)


class TestUtilizationTraceValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            UtilizationTrace([], 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            UtilizationTrace([1.0, -0.1], 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            UtilizationTrace([1.0, float("nan")], 1.0)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="positive"):
            UtilizationTrace([1.0], 0.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            UtilizationTrace(np.ones((2, 2)), 1.0)

    def test_samples_read_only(self):
        trace = UtilizationTrace([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            trace.samples[0] = 9.0


class TestUtilizationTraceStats:
    def test_basic_stats(self):
        trace = UtilizationTrace([1.0, 2.0, 3.0, 2.0], 5.0, "t")
        assert trace.peak() == 3.0
        assert trace.mean() == 2.0
        assert trace.num_samples == 4
        assert trace.duration_s == 20.0
        assert trace.percentile(100.0) == 3.0

    def test_peak_to_mean(self):
        trace = UtilizationTrace([1.0, 3.0], 1.0)
        assert trace.peak_to_mean() == pytest.approx(1.5)

    def test_peak_to_mean_of_zero_trace_is_inf(self):
        trace = UtilizationTrace([0.0, 0.0], 1.0)
        assert trace.peak_to_mean() == float("inf")

    def test_reference_default_peak(self):
        trace = UtilizationTrace([1.0, 4.0], 1.0)
        assert trace.reference() == 4.0

    def test_times(self):
        trace = UtilizationTrace([1.0, 2.0, 3.0], 2.0)
        assert list(trace.times()) == [0.0, 2.0, 4.0]

    def test_envelope_marks_top_decile(self):
        samples = list(range(100))
        trace = UtilizationTrace(samples, 1.0)
        env = trace.envelope(90.0)
        # 90th percentile of 0..99 is 89.1; samples 90..99 exceed it.
        assert env.sum() == 10
        assert env[-10:].all()

    def test_pearson_between_traces(self):
        a = UtilizationTrace([1.0, 2.0, 3.0], 1.0, "a")
        b = UtilizationTrace([2.0, 4.0, 6.0], 1.0, "b")
        assert a.pearson(b) == pytest.approx(1.0)


class TestUtilizationTraceTransforms:
    def test_slice(self):
        trace = UtilizationTrace([0.0, 1.0, 2.0, 3.0], 1.0, "t")
        sub = trace.slice(1, 3)
        assert list(sub.samples) == [1.0, 2.0]
        assert sub.name == "t"

    def test_slice_bounds_checked(self):
        trace = UtilizationTrace([1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="invalid slice"):
            trace.slice(0, 3)
        with pytest.raises(ValueError, match="invalid slice"):
            trace.slice(1, 1)

    def test_window_in_seconds(self):
        trace = UtilizationTrace([0.0, 1.0, 2.0, 3.0], 2.0)
        sub = trace.window(2.0, 6.0)
        assert list(sub.samples) == [1.0, 2.0]

    def test_scaled(self):
        trace = UtilizationTrace([1.0, 2.0], 1.0)
        assert list(trace.scaled(2.0).samples) == [2.0, 4.0]
        with pytest.raises(ValueError):
            trace.scaled(-1.0)

    def test_clipped(self):
        trace = UtilizationTrace([1.0, 5.0], 1.0)
        assert list(trace.clipped(3.0).samples) == [1.0, 3.0]

    def test_renamed(self):
        trace = UtilizationTrace([1.0], 1.0, "old")
        assert trace.renamed("new").name == "new"

    def test_resample_mean_preserving(self):
        trace = UtilizationTrace([1.0, 3.0, 5.0, 7.0], 1.0)
        coarse = trace.resampled(2.0)
        assert list(coarse.samples) == [2.0, 6.0]
        assert coarse.period_s == 2.0

    def test_resample_drops_partial_tail(self):
        trace = UtilizationTrace([1.0, 3.0, 9.0], 1.0)
        coarse = trace.resampled(2.0)
        assert list(coarse.samples) == [2.0]

    def test_resample_non_integer_ratio_rejected(self):
        trace = UtilizationTrace([1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="integer multiple"):
            trace.resampled(1.5)

    def test_add_aggregates(self):
        a = UtilizationTrace([1.0, 2.0], 1.0, "a")
        b = UtilizationTrace([3.0, 4.0], 1.0, "b")
        total = a + b
        assert list(total.samples) == [4.0, 6.0]
        assert total.name == "a+b"

    def test_add_misaligned_rejected(self):
        a = UtilizationTrace([1.0, 2.0], 1.0, "a")
        with pytest.raises(ValueError, match="length mismatch"):
            a + UtilizationTrace([1.0], 1.0, "b")
        with pytest.raises(ValueError, match="period mismatch"):
            a + UtilizationTrace([1.0, 2.0], 2.0, "b")

    def test_from_function_clips_negatives(self):
        trace = UtilizationTrace.from_function(lambda t: np.sin(t) - 10.0, 5.0, 1.0)
        assert trace.peak() == 0.0

    def test_constant(self):
        trace = UtilizationTrace.constant(2.5, 4, 1.0, "c")
        assert trace.mean() == 2.5
        assert trace.num_samples == 4

    @given(demand_lists)
    def test_resampling_preserves_total_mean(self, values):
        values = values * 4  # make divisible lengths likely
        trace = UtilizationTrace(values, 1.0)
        coarse = trace.resampled(2.0)
        usable = (len(values) // 2) * 2
        assert coarse.mean() == pytest.approx(
            float(np.mean(values[:usable])), rel=1e-9, abs=1e-9
        )


class TestPeakSubadditivity:
    @given(demand_lists, demand_lists)
    def test_joint_peak_bounded(self, xs, ys):
        n = min(len(xs), len(ys))
        a = UtilizationTrace(xs[:n], 1.0, "a")
        b = UtilizationTrace(ys[:n], 1.0, "b")
        joint = (a + b).peak()
        assert joint <= a.peak() + b.peak() + 1e-9
        assert joint >= max(a.peak(), b.peak()) - 1e-9


class TestTraceSet:
    def test_requires_names(self):
        with pytest.raises(ValueError, match="named"):
            TraceSet([UtilizationTrace([1.0], 1.0)])

    def test_rejects_duplicates(self):
        a = UtilizationTrace([1.0], 1.0, "a")
        with pytest.raises(ValueError, match="duplicate"):
            TraceSet([a, a.renamed("a")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            TraceSet([])

    def test_rejects_misaligned(self):
        a = UtilizationTrace([1.0, 2.0], 1.0, "a")
        b = UtilizationTrace([1.0], 1.0, "b")
        with pytest.raises(ValueError, match="length mismatch"):
            TraceSet([a, b])

    def test_lookup_by_name_and_index(self, correlated_pair):
        assert correlated_pair["a"].name == "a"
        assert correlated_pair[1].name == "b"
        assert correlated_pair.index_of("b") == 1
        assert "a" in correlated_pair
        with pytest.raises(KeyError):
            correlated_pair.index_of("zz")

    def test_references(self, correlated_pair):
        refs = correlated_pair.references()
        assert refs == {"a": 4.0, "b": 2.0}
        assert correlated_pair.total_reference() == 6.0

    def test_aggregate_all_and_subset(self, correlated_pair):
        total = correlated_pair.aggregate()
        assert total.peak() == 6.0
        sub = correlated_pair.aggregate(["a"])
        assert sub.peak() == 4.0
        with pytest.raises(ValueError, match="empty subset"):
            correlated_pair.aggregate([])

    def test_subset_order(self, four_vm_traces):
        sub = four_vm_traces.subset(["b1", "a1"])
        assert sub.names == ("b1", "a1")

    def test_slice(self, four_vm_traces):
        sub = four_vm_traces.slice(0, 3)
        assert sub.num_samples == 3
        assert sub.num_traces == 4

    def test_resampled(self, four_vm_traces):
        coarse = four_vm_traces.resampled(2.0)
        assert coarse.num_samples == 3

    def test_from_mapping(self):
        ts = TraceSet.from_mapping({"x": [1.0, 2.0], "y": [3.0, 4.0]}, 1.0)
        assert ts.names == ("x", "y")

    def test_iteration_yields_traces(self, correlated_pair):
        names = [t.name for t in correlated_pair]
        assert names == ["a", "b"]

    def test_matrix_read_only(self, correlated_pair):
        with pytest.raises(ValueError):
            correlated_pair.matrix[0, 0] = 9.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_from_matrix_rejects_bad_caller_samples(self, bad):
        matrix = np.ones((2, 3))
        matrix[1, 2] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            TraceSet.from_matrix(matrix, ("a", "b"), 1.0)
