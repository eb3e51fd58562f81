"""Equivalence of the vectorized kernels against their scalar references.

The perf work replaced the per-pair Python hot paths with flat-array
kernels; these tests pin the contract that made that safe:

* :class:`BatchPSquare` advances exactly like a bank of scalar
  :class:`PSquarePercentile` estimators;
* peak-mode :class:`StreamingCostMatrix` is *bit-exact* against
  :meth:`CostMatrix.from_traces` (a running maximum is lossless);
* percentile-mode streaming matches a per-pair scalar
  :class:`RunningPercentile` reference within the existing property-test
  error bounds;
* the allocator's indexed fast path produces placements identical to the
  string-keyed scalar path on randomized instances;
* the vectorized batch kernels (:meth:`CostMatrix.from_traces`,
  :func:`pearson_cost_matrix`) match naive per-pair evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import BatchPSquare, PSquarePercentile, RunningPercentile, pearson
from repro.core.allocation import AllocationConfig, CorrelationAwareAllocator
from repro.core.correlation import CostMatrix, StreamingCostMatrix, pearson_cost_matrix
from repro.core.server_cost import prospective_server_cost
from repro.traces.trace import ReferenceSpec, TraceSet, UtilizationTrace


def _random_traces(rng: np.random.Generator, n: int, samples: int) -> TraceSet:
    return TraceSet(
        UtilizationTrace(rng.uniform(0.0, 4.0, size=samples), 1.0, f"vm{i:03d}")
        for i in range(n)
    )


class TestBatchPSquareEquivalence:
    @pytest.mark.parametrize("q", [10.0, 50.0, 90.0, 99.0])
    def test_lockstep_with_scalar_bank(self, q, rng):
        n = 23
        data = rng.lognormal(0.0, 0.5, size=(300, n))
        batch = BatchPSquare(q, n)
        scalars = [PSquarePercentile(q) for _ in range(n)]
        for t, row in enumerate(data):
            batch.update(row)
            for k, scalar in enumerate(scalars):
                scalar.update(float(row[k]))
            if t in (0, 2, 4, 10, 299):  # inside and past the warm-up buffer
                expected = np.array([s.value for s in scalars])
                np.testing.assert_allclose(batch.values, expected, rtol=0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="interior"):
            BatchPSquare(100.0, 4)
        with pytest.raises(ValueError, match="stream"):
            BatchPSquare(50.0, 0)
        batch = BatchPSquare(50.0, 3)
        with pytest.raises(ValueError, match="expected 3"):
            batch.update([1.0, 2.0])
        with pytest.raises(ValueError, match="no samples"):
            batch.values

    def test_reset(self, rng):
        batch = BatchPSquare(90.0, 5)
        batch.extend(rng.uniform(0, 1, size=(20, 5)))
        batch.reset()
        assert batch.count == 0
        batch.update(np.full(5, 2.0))
        np.testing.assert_allclose(batch.values, np.full(5, 2.0))


class TestStreamingPeakBitExact:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_streaming_equals_batch_bitwise(self, n, samples, seed):
        rng = np.random.default_rng(seed)
        traces = _random_traces(rng, n, samples)
        streaming = StreamingCostMatrix(traces.names)
        for column in traces.matrix.T:
            streaming.update(column)
        exact = CostMatrix.from_traces(traces)
        assert np.array_equal(streaming.as_array(), exact.as_array())
        assert streaming.references() == exact.references()

    def test_cost_lookup_matches_array(self, rng):
        traces = _random_traces(rng, 9, 50)
        streaming = StreamingCostMatrix(traces.names)
        streaming.extend(traces.matrix.T)
        array = streaming.as_array()
        for i in range(9):
            for j in range(9):
                assert streaming.cost(i, j) == array[i, j]


class TestStreamingPercentileAgainstScalarReference:
    def test_matches_per_pair_running_percentile(self, rng):
        """The vectorized matrix replays the old per-pair scalar design."""
        q = 90.0
        names = ("a", "b", "c", "d")
        n = len(names)
        data = rng.lognormal(0.0, 0.4, size=(500, n))
        streaming = StreamingCostMatrix(names, ReferenceSpec(q))
        singles = [RunningPercentile(q) for _ in range(n)]
        pairs = {
            (i, j): RunningPercentile(q) for i in range(n) for j in range(i + 1, n)
        }
        for row in data:
            streaming.update(row)
            for i, estimator in enumerate(singles):
                estimator.update(float(row[i]))
            for (i, j), estimator in pairs.items():
                estimator.update(float(row[i] + row[j]))
        for i in range(n):
            assert streaming.reference(i) == pytest.approx(singles[i].value, abs=1e-12)
            for j in range(i + 1, n):
                expected = (singles[i].value + singles[j].value) / pairs[(i, j)].value
                assert streaming.cost(i, j) == pytest.approx(expected, abs=1e-12)

    def test_percentile_mode_approximates_exact_matrix(self, rng):
        """Same error bound the original property tests imposed."""
        q = 90.0
        traces = TraceSet(
            UtilizationTrace(rng.lognormal(0.0, 0.4, size=4000), 1.0, name)
            for name in ("a", "b", "c")
        )
        streaming = StreamingCostMatrix(traces.names, ReferenceSpec(q))
        streaming.extend(traces.matrix.T)
        exact = CostMatrix.from_traces(traces, ReferenceSpec(q))
        np.testing.assert_allclose(streaming.as_array(), exact.as_array(), rtol=0.1)


class TestBatchCostMatrixAgainstNaive:
    @pytest.mark.parametrize("spec", [ReferenceSpec(100.0), ReferenceSpec(90.0)])
    def test_from_traces_matches_per_pair_loop(self, spec, rng):
        traces = _random_traces(rng, 11, 80)
        matrix = CostMatrix.from_traces(traces, spec)
        data = traces.matrix
        for i in range(11):
            for j in range(11):
                if i == j:
                    assert matrix.cost(i, j) == 1.0
                    continue
                ref_i = spec.of(data[i])
                ref_j = spec.of(data[j])
                joint = spec.of(data[i] + data[j])
                expected = (ref_i + ref_j) / joint if joint > 0 else 1.0
                assert matrix.cost(i, j) == pytest.approx(expected, abs=1e-12)

    def test_blocked_build_is_block_size_invariant(self, rng, monkeypatch):
        from repro.core import correlation

        traces = _random_traces(rng, 17, 60)
        full = CostMatrix.from_traces(traces).as_array()
        monkeypatch.setattr(correlation, "_SCRATCH_BYTES", 1)
        blocked = CostMatrix.from_traces(traces).as_array()
        assert np.array_equal(full, blocked)

    def test_pearson_matrix_matches_scalar(self, rng):
        traces = _random_traces(rng, 8, 40)
        matrix = pearson_cost_matrix(traces)
        data = traces.matrix
        for i in range(8):
            for j in range(8):
                expected = 1.0 if i == j else pearson(data[i], data[j])
                assert matrix[i, j] == pytest.approx(expected, abs=1e-10)

    def test_pearson_degenerate_rows_are_zero(self):
        traces = TraceSet(
            [
                UtilizationTrace([2.0, 2.0, 2.0], 1.0, "flat"),
                UtilizationTrace([1.0, 2.0, 3.0], 1.0, "ramp"),
            ]
        )
        matrix = pearson_cost_matrix(traces)
        assert matrix[0, 1] == 0.0
        assert matrix[1, 0] == 0.0
        assert matrix[0, 0] == 1.0


class TestAllocatorFastPathEquivalence:
    def _paths_agree(self, names, refs, matrix, config, n_cores, max_servers=None):
        allocator = CorrelationAwareAllocator(config)
        slow = allocator.allocate(names, refs, matrix.cost, n_cores, max_servers)
        fast = allocator.allocate(
            names,
            refs,
            None,
            n_cores,
            max_servers,
            cost_array=matrix.as_array(),
            name_index=matrix.name_index,
        )
        assert dict(slow.assignment) == dict(fast.assignment)
        assert slow.num_servers == fast.num_servers
        return fast

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=1.02, max_value=1.6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_identical_placements_on_random_instances(self, n, th_cost, seed):
        rng = np.random.default_rng(seed)
        traces = _random_traces(rng, n, 60)
        matrix = CostMatrix.from_traces(traces)
        refs = {vm: float(rng.uniform(0.05, 6.0)) for vm in traces.names}
        config = AllocationConfig(th_cost=th_cost)
        self._paths_agree(list(traces.names), refs, matrix, config, 8)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=4, max_value=24),
        st.floats(min_value=2.0, max_value=50.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_threshold_jump_matches_level_by_level_decay(self, n, th_cost, seed):
        """Extreme thresholds force long TH-degeneration runs; the batched
        sweep must jump through them to the same placements (and the same
        float threshold trajectory) as the scalar level-by-level loop."""
        rng = np.random.default_rng(seed)
        traces = _random_traces(rng, n, 40)
        matrix = CostMatrix.from_traces(traces)
        refs = {vm: float(rng.uniform(0.05, 5.0)) for vm in traces.names}
        config = AllocationConfig(th_cost=th_cost, alpha=0.99)
        self._paths_agree(list(traces.names), refs, matrix, config, 8)

    def test_cross_period_reuse_of_unchanged_rows(self, rng):
        """One allocator re-used across periods (reindex cache warm, a few
        matrix rows changing per period) places exactly like a fresh
        allocator on every period."""
        traces = _random_traces(rng, 18, 60)
        matrix = CostMatrix.from_traces(traces)
        array = matrix.as_array().copy()
        refs = {vm: float(rng.uniform(0.1, 5.0)) for vm in traces.names}
        reused = CorrelationAwareAllocator()
        for period in range(5):
            if period:
                # Perturb a couple of rows/columns, symmetric like a
                # streaming peak update; most rows stay byte-identical.
                i = int(rng.integers(0, 18))
                array[i, :] = array[i, :] * float(rng.uniform(1.0, 1.2))
                array[:, i] = array[i, :]
                array[i, i] = 1.0
            warm = reused.allocate(
                list(traces.names), refs, None, 8,
                cost_array=array, name_index=matrix.name_index,
            )
            cold = CorrelationAwareAllocator().allocate(
                list(traces.names), refs, None, 8,
                cost_array=array, name_index=matrix.name_index,
            )
            assert dict(warm.assignment) == dict(cold.assignment)
            assert warm.num_servers == cold.num_servers

    def test_cross_period_reuse_with_changing_order(self, rng):
        """A reference change reshuffles the canonical order: the reindex
        cache must drop itself rather than serve the stale permutation."""
        traces = _random_traces(rng, 12, 40)
        matrix = CostMatrix.from_traces(traces)
        array = matrix.as_array()
        reused = CorrelationAwareAllocator()
        for _period in range(3):
            refs = {vm: float(rng.uniform(0.1, 5.0)) for vm in traces.names}
            warm = reused.allocate(
                list(traces.names), refs, None, 8,
                cost_array=array, name_index=matrix.name_index,
            )
            cold = CorrelationAwareAllocator().allocate(
                list(traces.names), refs, None, 8,
                cost_array=array, name_index=matrix.name_index,
            )
            assert dict(warm.assignment) == dict(cold.assignment)

    def test_population_swap_same_shape_never_serves_stale_rows(self, rng):
        """Swapping to a *different* trace population of identical shape
        and names (fresh matrix values) across periods — with and
        without an intervening reset — must re-gather every changed row
        rather than reuse the previous population's entries."""
        names = [f"vm{i:03d}" for i in range(14)]
        refs = {vm: float(rng.uniform(0.2, 4.0)) for vm in names}
        reused = CorrelationAwareAllocator()
        for period in range(6):
            traces = TraceSet(
                UtilizationTrace(rng.uniform(0.0, 4.0, size=50), 1.0, name)
                for name in names
            )
            matrix = CostMatrix.from_traces(traces)
            if period == 3:
                reused.reset_cache()
            warm = reused.allocate(
                names, refs, None, 8,
                cost_array=matrix.as_array(), name_index=matrix.name_index,
            )
            cold = CorrelationAwareAllocator().allocate(
                names, refs, None, 8,
                cost_array=matrix.as_array(), name_index=matrix.name_index,
            )
            assert dict(warm.assignment) == dict(cold.assignment)
            assert warm.num_servers == cold.num_servers

    def test_cached_permutation_is_tamper_proof(self, rng):
        """The cached slot-permuted matrix is read-only: a caller
        mutating it in place (which the input-compare fingerprint could
        never detect) fails loudly instead of corrupting every later
        period."""
        traces = _random_traces(rng, 8, 30)
        matrix = CostMatrix.from_traces(traces)
        refs = matrix.references()
        allocator = CorrelationAwareAllocator()
        allocator.allocate(
            list(traces.names), refs, None, 8,
            cost_array=matrix.as_array(), name_index=matrix.name_index,
        )
        cache = allocator._reindex_cache
        assert cache is not None and not cache.permuted.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cache.permuted[0, 0] = 99.0
        # ... and incremental row re-gathers still work on the frozen array.
        perturbed = matrix.as_array().copy()
        perturbed[2, :] *= 1.01
        perturbed[:, 2] = perturbed[2, :]
        perturbed[2, 2] = 1.0
        warm = allocator.allocate(
            list(traces.names), refs, None, 8,
            cost_array=perturbed, name_index=matrix.name_index,
        )
        cold = CorrelationAwareAllocator().allocate(
            list(traces.names), refs, None, 8,
            cost_array=perturbed, name_index=matrix.name_index,
        )
        assert dict(warm.assignment) == dict(cold.assignment)

    def test_reset_cache_drops_the_snapshot(self, rng):
        traces = _random_traces(rng, 6, 30)
        matrix = CostMatrix.from_traces(traces)
        refs = matrix.references()
        allocator = CorrelationAwareAllocator()
        allocator.allocate(
            list(traces.names), refs, None, 8,
            cost_array=matrix.as_array(), name_index=matrix.name_index,
        )
        assert allocator._reindex_cache is not None
        allocator.reset_cache()
        assert allocator._reindex_cache is None

    def test_exact_cost_comparison_mode(self, rng):
        """cost_resolution=0 (no bucketing) also agrees across paths."""
        traces = _random_traces(rng, 16, 60)
        matrix = CostMatrix.from_traces(traces)
        refs = matrix.references()
        config = AllocationConfig(cost_resolution=0.0)
        self._paths_agree(list(traces.names), refs, matrix, config, 8)

    def test_streaming_matrix_feeds_fast_path(self, rng):
        traces = _random_traces(rng, 12, 40)
        streaming = StreamingCostMatrix(traces.names)
        streaming.extend(traces.matrix.T)
        refs = streaming.references()
        allocator = CorrelationAwareAllocator()
        slow = allocator.allocate(list(traces.names), refs, streaming.cost, 8)
        fast = allocator.allocate(
            list(traces.names),
            refs,
            None,
            8,
            cost_array=streaming.as_array(),
            name_index=streaming.name_index,
        )
        assert dict(slow.assignment) == dict(fast.assignment)

    def test_incremental_bin_state_matches_scalar_eqn2(self, rng):
        """The cached-pair-sum cost equals a fresh Eqn-2 evaluation."""
        traces = _random_traces(rng, 10, 40)
        matrix = CostMatrix.from_traces(traces)
        refs = matrix.references()
        members = list(traces.names[:4])
        candidate = traces.names[5]
        expected = prospective_server_cost(members, candidate, refs, matrix.cost)
        array = matrix.as_array()
        idx = [matrix.index_of(vm) for vm in members]
        c = matrix.index_of(candidate)
        r = np.array([refs[vm] for vm in traces.names])
        pair_weight = sum(
            r[i] * sum(array[i, j] for j in idx if j != i) for i in idx
        )
        row = array[c, idx]
        cross = float(row @ r[idx]) + r[c] * float(row.sum())
        total = float(r[idx].sum()) + r[c]
        incremental = (pair_weight + cross) / (total * len(idx))
        assert incremental == pytest.approx(expected, abs=1e-12)

    def test_fast_path_validation(self, rng):
        traces = _random_traces(rng, 4, 20)
        matrix = CostMatrix.from_traces(traces)
        refs = matrix.references()
        allocator = CorrelationAwareAllocator()
        with pytest.raises(ValueError, match="cost_fn or cost_array"):
            allocator.allocate(list(traces.names), refs, None, 8)
        with pytest.raises(ValueError, match="name_index"):
            allocator.allocate(
                list(traces.names), refs, None, 8, cost_array=matrix.as_array()
            )
        with pytest.raises(ValueError, match="square"):
            allocator.allocate(
                list(traces.names),
                refs,
                None,
                8,
                cost_array=np.ones((4, 3)),
                name_index=matrix.name_index,
            )
        with pytest.raises(ValueError, match="missing entries"):
            allocator.allocate(
                list(traces.names),
                refs,
                None,
                8,
                cost_array=matrix.as_array(),
                name_index={"vm000": 0},
            )
