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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import BatchPSquare, PSquarePercentile, RunningPercentile, pearson
from repro.core.allocation import AllocationConfig, CapacityError, CorrelationAwareAllocator
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
        """One allocator re-used across periods (a few matrix rows
        changing per period) places exactly like a fresh allocator on
        every period."""
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
        """A reference change reshuffles the canonical order: a reused
        allocator places on the new order exactly like a fresh one."""
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
        and names (fresh matrix values) across periods must place on the
        new values, exactly like a fresh allocator."""
        names = [f"vm{i:03d}" for i in range(14)]
        refs = {vm: float(rng.uniform(0.2, 4.0)) for vm in names}
        reused = CorrelationAwareAllocator()
        for _period in range(6):
            traces = TraceSet(
                UtilizationTrace(rng.uniform(0.0, 4.0, size=50), 1.0, name)
                for name in names
            )
            matrix = CostMatrix.from_traces(traces)
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


# ----------------------------------------------------------------------
# ALLOCATE sweep against a transcribed reference
#
# ``_RefIndexedCandidates``, ``_reference_sweeps`` and
# ``_reference_consolidate`` transcribe the indexed candidate strategy,
# the Fig-2 sweep loop and the extra-bin consolidation as they stood
# when every placement re-ranked all bins with an ``np.lexsort`` and
# every pick re-filtered and re-bucketed the admissible costs.
# ``_paths_agree`` above cannot catch a ranking or skip bug in the sweep
# loop: both of its paths run through that loop.  This oracle shares no
# sweep code with the allocator, so any rewrite of the loop must
# reproduce its placements, server counts and error messages exactly.
# ----------------------------------------------------------------------

_REF_FIT_EPS = 1e-12


class _RefBin:
    __slots__ = ("index", "members", "remaining", "ref_sum", "pair_weight", "cost_cache")

    def __init__(self, index, capacity):
        self.index = index
        self.members = []
        self.remaining = capacity
        self.ref_sum = 0.0
        self.pair_weight = 0.0
        self.cost_cache = None


class _RefIndexedCandidates:
    def __init__(self, order, refs, permuted_costs, resolution):
        self._names = list(order)
        self._r = np.array([refs[vm] for vm in order], dtype=float)
        self._costs = permuted_costs
        self._free = np.ones(len(self._names), dtype=bool)
        self._free_count = len(self._names)
        self._resolution = resolution

    @property
    def remaining(self):
        return self._free_count

    def any_fits(self, free_capacity):
        return bool((self._r[self._free] <= free_capacity + _REF_FIT_EPS).any())

    def _bin_costs(self, bin_):
        cache = bin_.cost_cache
        if cache is None:
            fitting = np.flatnonzero(
                self._free & (self._r <= bin_.remaining + _REF_FIT_EPS)
            )
            members = np.asarray(bin_.members, dtype=np.intp)
            sub = self._costs[np.ix_(fitting, members)]
            cross = sub @ self._r[members] + self._r[fitting] * sub.sum(axis=1)
            totals = bin_.ref_sum + self._r[fitting]
            with np.errstate(divide="ignore", invalid="ignore"):
                costs = np.where(
                    totals > 0.0,
                    (bin_.pair_weight + cross) / (totals * members.size),
                    1.0,
                )
            cache = (fitting, costs)
            bin_.cost_cache = cache
        fitting, costs = cache
        live = self._free[fitting]
        if not live.all():
            fitting = fitting[live]
            costs = costs[live]
        return fitting, costs

    def pick(self, bin_, threshold):
        if not bin_.members:
            fitting = np.flatnonzero(
                self._free & (self._r <= bin_.remaining + _REF_FIT_EPS)
            )
            if fitting.size == 0:
                return None
            return int(fitting[0])
        fitting, costs = self._bin_costs(bin_)
        if fitting.size == 0:
            return None
        admissible = costs > threshold
        if not admissible.any():
            return None
        candidates = fitting[admissible]
        costs = costs[admissible]
        resolution = self._resolution
        bucketed = np.round(costs / resolution) * resolution if resolution > 0 else costs
        return int(candidates[np.argmax(bucketed)])

    def best_cost(self, bin_):
        if not bin_.members:
            if self.any_fits(bin_.remaining):
                return math.inf
            return None
        fitting, costs = self._bin_costs(bin_)
        if fitting.size == 0:
            return None
        return float(costs.max())

    def place(self, bin_, slot):
        if bin_.members:
            members = np.asarray(bin_.members, dtype=np.intp)
            row = self._costs[slot, members]
            bin_.pair_weight += float(row @ self._r[members]) + self._r[slot] * float(row.sum())
        bin_.members.append(slot)
        bin_.remaining -= self._r[slot]
        bin_.ref_sum += self._r[slot]
        bin_.cost_cache = None
        self._free[slot] = False
        self._free_count -= 1

    def size_of(self, member):
        return float(self._r[member])

    def name_of(self, member):
        return self._names[member]


def _reference_sweeps(config, candidates, capacity, estimate, max_servers):
    bins = [_RefBin(i, capacity) for i in range(estimate)]
    threshold = config.th_cost
    max_sweeps = config.max_sweeps
    sweeps = 0
    remaining = np.full(len(bins), capacity, dtype=float)
    while candidates.remaining:
        sweeps += 1
        if sweeps > max_sweeps:
            raise CapacityError(f"allocation did not converge within {max_sweeps} sweeps")
        progress = False
        order = np.lexsort((np.arange(remaining.size), -remaining))
        for pos in order:
            bin_ = bins[pos]
            chosen = candidates.pick(bin_, threshold)
            if chosen is None:
                continue
            candidates.place(bin_, chosen)
            remaining[bin_.index] = bin_.remaining
            progress = True
            break
        if candidates.remaining and not progress:
            best = float("-inf")
            for bin_ in bins:
                bin_best = candidates.best_cost(bin_)
                if bin_best is not None and bin_best > best:
                    best = bin_best
            if best > float("-inf"):
                threshold *= config.alpha
                while best <= threshold:
                    sweeps += 1
                    if sweeps > max_sweeps:
                        raise CapacityError(
                            f"allocation did not converge within {max_sweeps} sweeps"
                        )
                    threshold *= config.alpha
            else:
                if max_servers is not None and len(bins) >= max_servers:
                    raise CapacityError(
                        f"cannot place {candidates.remaining} VMs within "
                        f"{max_servers} servers of capacity {capacity}"
                    )
                bins.append(_RefBin(len(bins), capacity))
                remaining = np.append(remaining, capacity)
    return bins


def _reference_consolidate(bins, size_of, estimate):
    for extra in reversed(bins[estimate:]):
        if not extra.members:
            continue
        moves = []
        planned = {}
        for member in extra.members:
            demand = size_of(member)
            target = None
            for bin_ in bins[:estimate]:
                free = bin_.remaining - planned.get(bin_.index, 0.0)
                if demand <= free + _REF_FIT_EPS:
                    target = bin_
                    break
            if target is None:
                break
            planned[target.index] = planned.get(target.index, 0.0) + demand
            moves.append((member, target))
        if len(moves) != len(extra.members):
            continue
        for member, target in moves:
            target.members.append(member)
            target.remaining -= size_of(member)
        extra.members.clear()
        extra.remaining = 0.0


def _reference_allocate(config, vm_ids, references, cost_array, name_index, n_cores, max_servers):
    """``(assignment, num_servers)`` or the ``CapacityError`` message."""
    capacity = float(n_cores)
    refs = {vm: min(max(float(references[vm]), 0.0), capacity) for vm in vm_ids}
    order = sorted(vm_ids, key=lambda vm: (-refs[vm], vm))
    estimate = max(1, math.ceil(sum(refs.values()) / capacity - 1e-12))
    try:
        if max_servers is not None and estimate > max_servers:
            raise CapacityError(
                f"Eqn-3 estimate needs {estimate} servers, fleet has {max_servers}"
            )
        rows = np.array([name_index[vm] for vm in order], dtype=np.intp)
        permuted = np.ascontiguousarray(np.asarray(cost_array, dtype=float)[np.ix_(rows, rows)])
        candidates = _RefIndexedCandidates(order, refs, permuted, config.cost_resolution)
        bins = _reference_sweeps(config, candidates, capacity, estimate, max_servers)
    except CapacityError as error:
        return str(error)
    _reference_consolidate(bins, candidates.size_of, estimate)
    assignment = {candidates.name_of(m): b.index for b in bins for m in b.members}
    return assignment, (max_servers if max_servers is not None else len(bins))


def _allocate_outcome(allocator, names, refs, n_cores, max_servers, **paths):
    try:
        placement = allocator.allocate(names, refs, paths.pop("cost_fn", None), n_cores,
                                       max_servers, **paths)
    except CapacityError as error:
        return str(error)
    return dict(placement.assignment), placement.num_servers


def _assert_sweep_matches_reference(
    names, refs, matrix, config, n_cores, max_servers=None, allocator=None, string_path=False
):
    array = matrix.as_array()
    expected = _reference_allocate(
        config, names, refs, array, matrix.name_index, n_cores, max_servers
    )
    allocator = allocator or CorrelationAwareAllocator(config)
    indexed = _allocate_outcome(
        allocator, names, refs, n_cores, max_servers,
        cost_array=array, name_index=matrix.name_index,
    )
    assert indexed == expected
    if string_path:
        assert _allocate_outcome(
            CorrelationAwareAllocator(config), names, refs, n_cores, max_servers,
            cost_fn=matrix.cost,
        ) == expected
    return expected


def _sweep_instance(rng, n, samples, n_cores, *, percentile=False, zero_frac=0.0, sizes="spread"):
    traces = _random_traces(rng, n, samples)
    spec = ReferenceSpec(90.0) if percentile else None
    matrix = CostMatrix.from_traces(traces, spec)
    if sizes == "fragmenting":
        # Just over half a server each: the Eqn-3 estimate packs two per
        # server, the sweep can fit only one, so extra bins open.
        values = rng.uniform(0.51, 0.62, size=n) * n_cores
    else:
        values = rng.uniform(0.02, 0.8, size=n) * n_cores
    values[rng.random(n) < zero_frac] = 0.0
    refs = {vm: float(v) for vm, v in zip(traces.names, values)}
    return list(traces.names), refs, matrix


class TestSweepMatchesReference:
    @pytest.mark.parametrize("percentile", [False, True])
    @pytest.mark.parametrize(
        "th_cost,alpha", [(1.02, 0.9), (1.10, 0.9), (3.0, 0.5), (50.0, 0.99)]
    )
    def test_seeded_corpus(self, percentile, th_cost, alpha):
        rng = np.random.default_rng([int(th_cost * 100), int(alpha * 100), int(percentile)])
        for n in (1, 2, 3, 5, 9, 17, 40, 90, 300):
            resolution = float(rng.choice([0.0, 0.01, 0.05, 0.2]))
            n_cores = int(rng.choice([1, 4, 8, 16]))
            config = AllocationConfig(th_cost=th_cost, alpha=alpha, cost_resolution=resolution)
            names, refs, matrix = _sweep_instance(
                rng, n, 40, n_cores, percentile=percentile, zero_frac=0.15
            )
            _assert_sweep_matches_reference(
                names, refs, matrix, config, n_cores, string_path=n <= 40
            )

    @pytest.mark.parametrize("resolution", [0.0, 0.01, 0.05, 0.2])
    @pytest.mark.parametrize("n_cores", [1, 4, 8, 16])
    def test_bins_beyond_the_estimate(self, resolution, n_cores):
        rng = np.random.default_rng([n_cores, int(resolution * 100)])
        config = AllocationConfig(cost_resolution=resolution)
        for n in (3, 11, 60):
            names, refs, matrix = _sweep_instance(rng, n, 30, n_cores, sizes="fragmenting")
            estimate = max(1, math.ceil(sum(refs.values()) / n_cores - 1e-12))
            outcome = _assert_sweep_matches_reference(
                names, refs, matrix, config, n_cores, string_path=True
            )
            assert outcome[1] > estimate
            # A fleet of exactly the estimate cannot host them.
            message = _assert_sweep_matches_reference(
                names, refs, matrix, config, n_cores, max_servers=estimate
            )
            assert message.startswith("cannot place")
            # A roomy fleet keeps its bound as the server count.
            _assert_sweep_matches_reference(
                names, refs, matrix, config, n_cores, max_servers=2 * n
            )

    def test_zero_references(self):
        """All-zero bins take the ``ref_sum == 0`` branch (cost 1.0)."""
        rng = np.random.default_rng(7)
        for zero_frac in (0.5, 1.0):
            for resolution in (0.0, 0.05):
                names, refs, matrix = _sweep_instance(rng, 25, 30, 4, zero_frac=zero_frac)
                config = AllocationConfig(cost_resolution=resolution, th_cost=0.9)
                _assert_sweep_matches_reference(
                    names, refs, matrix, config, 4, string_path=True
                )

    def test_capacity_errors(self):
        rng = np.random.default_rng(11)
        names, refs, matrix = _sweep_instance(rng, 30, 30, 8)
        config = AllocationConfig(th_cost=50.0, alpha=0.9, max_sweeps=40)
        message = _assert_sweep_matches_reference(names, refs, matrix, config, 8)
        assert "did not converge" in message
        message = _assert_sweep_matches_reference(
            names, refs, matrix, AllocationConfig(), 8, max_servers=1
        )
        assert message.startswith("Eqn-3 estimate")

    def test_large_instance(self):
        """The replay scale: 700 VMs over ~80 bins."""
        rng = np.random.default_rng(700)
        traces = _random_traces(rng, 700, 48)
        matrix = CostMatrix.from_traces(traces)
        refs = {vm: float(v) for vm, v in zip(traces.names, rng.uniform(0.3, 1.5, size=700))}
        num_servers = _assert_sweep_matches_reference(
            list(traces.names), refs, matrix, AllocationConfig(), 8
        )[1]
        assert 70 <= num_servers <= 100

    def test_reused_allocator_across_reordered_periods(self):
        rng = np.random.default_rng(2024)
        traces = _random_traces(rng, 60, 40)
        names = list(traces.names)
        allocator = CorrelationAwareAllocator()
        for period in range(6):
            if period % 2 == 0:
                # New references reorder the canonical slot order.
                refs = {vm: float(rng.uniform(0.05, 5.0)) for vm in names}
            traces = TraceSet(
                UtilizationTrace(rng.uniform(0.0, 4.0, size=40), 1.0, name) for name in names
            )
            matrix = CostMatrix.from_traces(traces)
            _assert_sweep_matches_reference(
                names, refs, matrix, AllocationConfig(), 8, allocator=allocator
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        th_cost=st.floats(min_value=1.02, max_value=50.0),
        alpha=st.sampled_from([0.5, 0.9, 0.99]),
        resolution=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
        n_cores=st.sampled_from([1, 4, 8, 16]),
        zero_frac=st.sampled_from([0.0, 0.2, 1.0]),
        sizes=st.sampled_from(["spread", "fragmenting"]),
        percentile=st.booleans(),
        fleet=st.sampled_from([None, "estimate", "roomy"]),
    )
    def test_hypothesis(
        self, seed, n, th_cost, alpha, resolution, n_cores, zero_frac, sizes, percentile, fleet
    ):
        rng = np.random.default_rng(seed)
        names, refs, matrix = _sweep_instance(
            rng, n, 24, n_cores, percentile=percentile, zero_frac=zero_frac, sizes=sizes
        )
        estimate = max(1, math.ceil(sum(refs.values()) / n_cores - 1e-12))
        max_servers = {None: None, "estimate": estimate, "roomy": 2 * n + 1}[fleet]
        config = AllocationConfig(th_cost=th_cost, alpha=alpha, cost_resolution=resolution)
        _assert_sweep_matches_reference(
            names, refs, matrix, config, n_cores, max_servers, string_path=True
        )
