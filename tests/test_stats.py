"""Tests for repro.analysis.stats — exact and streaming statistics."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import stats
from repro.analysis.stats import (
    BatchPSquare,
    PSquarePercentile,
    RunningMax,
    RunningMeanVar,
    RunningPercentile,
    autocorrelation,
    empirical_cdf,
    fold_marker_states,
    p2_marker_fractions,
    pearson,
    percentile,
    quantile_fold_fractions,
)

finite_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestPercentile:
    def test_peak_is_maximum(self):
        assert percentile([1.0, 5.0, 3.0], 100.0) == 5.0

    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)

    def test_zeroth_is_minimum(self):
        assert percentile([4.0, 1.0, 9.0], 0.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], -1.0)

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_bounded_by_extremes(self, values):
        q90 = percentile(values, 90.0)
        assert min(values) - 1e-9 <= q90 <= max(values) + 1e-9


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_input_returns_zero(self):
        assert pearson([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            pearson([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            pearson([1.0], [2.0])

    @given(st.lists(finite_floats, min_size=3, max_size=30))
    def test_self_correlation_is_one_or_zero(self, values):
        rho = pearson(values, values)
        # Constant (or numerically constant) input degenerates to 0 by
        # convention; anything else must self-correlate perfectly.
        assert rho == 0.0 or rho == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=30))
    def test_within_unit_interval(self, values):
        other = list(reversed(values))
        rho = pearson(values, other)
        assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        assert autocorrelation([1.0, 2.0, 3.0, 4.0], 0) == 1.0

    def test_periodic_signal(self):
        t = np.arange(100)
        wave = np.sin(2 * np.pi * t / 10)
        assert autocorrelation(wave, 10) == pytest.approx(1.0, abs=1e-6)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            autocorrelation([1.0, 2.0, 3.0], -1)

    def test_excessive_lag_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            autocorrelation([1.0, 2.0, 3.0], 5)


class TestEmpiricalCdf:
    def test_values_sorted_and_probs_end_at_one(self):
        values, probs = empirical_cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert probs[-1] == pytest.approx(1.0)
        assert np.all(np.diff(probs) > 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_cdf([])


class TestRunningMax:
    def test_tracks_maximum(self):
        r = RunningMax()
        r.extend([1.0, 5.0, 3.0])
        assert r.value == 5.0
        assert r.count == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            _ = RunningMax().value

    def test_reset(self):
        r = RunningMax()
        r.update(9.0)
        r.reset()
        assert r.count == 0
        with pytest.raises(ValueError):
            _ = r.value

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    def test_matches_builtin_max(self, values):
        r = RunningMax()
        r.extend(values)
        assert r.value == max(values)


class TestRunningMeanVar:
    def test_matches_numpy(self):
        data = [1.0, 2.0, 3.0, 4.0, 10.0]
        r = RunningMeanVar()
        r.extend(data)
        assert r.mean == pytest.approx(np.mean(data))
        assert r.variance == pytest.approx(np.var(data))
        assert r.std == pytest.approx(np.std(data))

    def test_single_sample_variance_zero(self):
        r = RunningMeanVar()
        r.update(7.0)
        assert r.variance == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            _ = RunningMeanVar().mean

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2, max_size=200))
    def test_welford_matches_numpy(self, values):
        r = RunningMeanVar()
        r.extend(values)
        assert r.mean == pytest.approx(float(np.mean(values)), abs=1e-6)
        assert r.variance == pytest.approx(float(np.var(values)), rel=1e-6, abs=1e-6)


class TestPSquare:
    def test_rejects_extreme_quantiles(self):
        with pytest.raises(ValueError, match="interior"):
            PSquarePercentile(100.0)
        with pytest.raises(ValueError, match="interior"):
            PSquarePercentile(0.0)

    def test_exact_below_five_samples(self):
        p = PSquarePercentile(50.0)
        p.extend([1.0, 3.0, 2.0])
        assert p.value == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            _ = PSquarePercentile(50.0).value

    def test_converges_on_uniform(self, rng):
        data = rng.uniform(0.0, 1.0, size=5000)
        p = PSquarePercentile(90.0)
        p.extend(data)
        assert p.value == pytest.approx(0.9, abs=0.03)

    def test_converges_on_lognormal(self, rng):
        data = rng.lognormal(0.0, 0.5, size=5000)
        p = PSquarePercentile(90.0)
        p.extend(data)
        exact = percentile(data, 90.0)
        assert p.value == pytest.approx(exact, rel=0.05)

    def test_reset_restores_initial_state(self, rng):
        p = PSquarePercentile(75.0)
        p.extend(rng.uniform(size=100))
        p.reset()
        assert p.count == 0
        p.extend([1.0, 2.0, 3.0, 4.0])
        assert p.value == pytest.approx(percentile([1, 2, 3, 4], 75.0))

    @settings(max_examples=25)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=200, max_size=400), st.sampled_from([25.0, 50.0, 75.0, 90.0, 95.0]))
    def test_estimate_within_sample_range(self, values, q):
        p = PSquarePercentile(q)
        p.extend(values)
        assert min(values) - 1e-9 <= p.value <= max(values) + 1e-9


class TestPSquareHandoff:
    """Regressions for the exact-buffer -> marker handoff (count == 5)."""

    @pytest.mark.parametrize("q", [25.0, 75.0, 90.0])
    def test_exact_at_exactly_five_samples(self, q):
        data = [3.0, 1.0, 4.0, 1.5, 9.0]
        p = PSquarePercentile(q)
        p.extend(data)
        assert p.count == 5
        assert p.value == pytest.approx(percentile(data, q), abs=1e-12)

    def test_batch_exact_at_exactly_five_samples(self):
        data = np.array([[3.0, 1.0], [1.0, 1.0], [4.0, 2.0], [1.5, 1.0], [9.0, 2.0]])
        batch = BatchPSquare(90.0, 2)
        batch.extend(data)
        expected = np.percentile(data, 90.0, axis=0)
        np.testing.assert_allclose(batch.values, expected, atol=1e-12)

    @pytest.mark.parametrize("q", [10.0, 50.0, 90.0])
    def test_scalar_batch_lockstep_with_duplicates(self, q, rng):
        """Duplicate-heavy streams around the handoff: scalar == batch,
        finite, at every prefix length."""
        support = np.array([0.0, 1.0, 2.5])
        data = rng.choice(support, size=(12, 3))
        batch = BatchPSquare(q, 3)
        scalars = [PSquarePercentile(q) for _ in range(3)]
        for row in data:
            batch.update(row)
            for k, scalar in enumerate(scalars):
                scalar.update(float(row[k]))
            expected = np.array([s.value for s in scalars])
            got = batch.values
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_constant_stream_stays_pinned(self):
        """All-duplicate streams (degenerate marker heights) never NaN
        out or drift off the constant in either implementation."""
        batch = BatchPSquare(90.0, 2)
        scalar = PSquarePercentile(90.0)
        for _ in range(40):
            batch.update([2.0, 2.0])
            scalar.update(2.0)
        assert scalar.value == 2.0
        np.testing.assert_array_equal(batch.values, [2.0, 2.0])


class TestBatchPSquareState:
    def test_snapshot_restore_round_trip(self, rng):
        batch = BatchPSquare(90.0, 4)
        data = rng.lognormal(0.0, 0.4, size=(50, 4))
        batch.fold_window(data[:30])
        state = batch.snapshot()
        fork = BatchPSquare(90.0, 4)
        fork.restore(state)
        batch.fold_window(data[30:])
        fork.fold_window(data[30:])
        np.testing.assert_array_equal(batch.values, fork.values)
        assert batch.count == fork.count

    def test_snapshot_is_decoupled_from_live_state(self, rng):
        batch = BatchPSquare(50.0, 2)
        batch.fold_window(rng.uniform(0, 1, size=(20, 2)))
        state = batch.snapshot()
        before = state["heights"].copy()
        batch.fold_window(rng.uniform(5, 6, size=(20, 2)))
        np.testing.assert_array_equal(state["heights"], before)

    def test_restore_rejects_mismatched_geometry(self):
        state = BatchPSquare(90.0, 3).snapshot()
        with pytest.raises(ValueError, match="streams"):
            BatchPSquare(90.0, 4).restore(state)
        with pytest.raises(ValueError, match="q="):
            BatchPSquare(50.0, 3).restore(state)

    def test_restore_rejects_degenerate_positions(self, rng):
        """Repeated marker positions would divide by zero in the
        parabolic step — the restore boundary refuses them."""
        batch = BatchPSquare(90.0, 2)
        batch.fold_window(rng.uniform(0, 1, size=(10, 2)))
        state = batch.snapshot()
        state["positions"][0, 1] = state["positions"][0, 2]
        with pytest.raises(ValueError, match="strictly increasing"):
            BatchPSquare(90.0, 2).restore(state)

    def test_fold_window_lockstep_with_update(self, rng):
        data = rng.lognormal(0.0, 0.5, size=(80, 3))
        folded = BatchPSquare(90.0, 3)
        folded.fold_window(data)
        stepped = BatchPSquare(90.0, 3)
        for row in data:
            stepped.update(row)
        np.testing.assert_array_equal(folded.values, stepped.values)
        assert folded.count == stepped.count == 80

    def test_fold_window_validates_shape(self):
        with pytest.raises(ValueError, match="block"):
            BatchPSquare(90.0, 3).fold_window(np.zeros((5, 2)))

    def test_marker_state_exact_during_warmup(self, rng):
        data = rng.uniform(0, 1, size=(4, 2))
        batch = BatchPSquare(90.0, 2)
        batch.fold_window(data)
        heights, count = batch.marker_state()
        assert count == 4
        expected = np.percentile(data, p2_marker_fractions(90.0) * 100.0, axis=0).T
        np.testing.assert_allclose(heights, expected, atol=1e-12)


class TestMarkerFold:
    def test_single_state_returns_its_q_marker(self, rng):
        data = rng.lognormal(0.0, 0.5, size=(200, 6))
        batch = BatchPSquare(90.0, 6)
        batch.fold_window(data)
        heights, count = batch.marker_state()
        folded = fold_marker_states(heights[None], [count], 90.0)
        np.testing.assert_array_equal(folded, heights[:, 2])

    def test_fold_of_identical_states_is_that_state(self, rng):
        data = rng.lognormal(0.0, 0.4, size=(300, 4))
        batch = BatchPSquare(90.0, 4)
        batch.fold_window(data)
        heights, count = batch.marker_state()
        folded = fold_marker_states(
            np.stack([heights, heights, heights]), [count] * 3, 90.0
        )
        # Identical mixtures invert to the shared q marker (up to the
        # bisection resolution of the zero-width bracket).
        np.testing.assert_allclose(folded, heights[:, 2], rtol=1e-9)

    def test_fold_of_p2_states_approximates_union_percentile(self, rng):
        q = 90.0
        windows = [rng.lognormal(0.0, 0.4, size=(400, 8)) for _ in range(3)]
        states = []
        for window in windows:
            batch = BatchPSquare(q, 8)
            batch.fold_window(window)
            states.append(batch.marker_state())
        folded = fold_marker_states(
            np.stack([s[0] for s in states]), [s[1] for s in states], q
        )
        exact = np.percentile(np.concatenate(windows, axis=0), q, axis=0)
        np.testing.assert_allclose(folded, exact, rtol=0.1)

    def test_atoms_snap_instead_of_smearing(self):
        """Mixture atoms (constant streams) must invert to the atom, not
        a linear smear across the support gap."""
        const2 = np.full((1, 5), 2.0)
        const0 = np.zeros((1, 5))
        folded = fold_marker_states(
            np.stack([const2, const2, const0]), [50, 50, 50], 90.0
        )
        assert folded[0] == pytest.approx(2.0, abs=1e-3)

    def test_count_weighting_shifts_the_estimate(self):
        low = np.full((1, 5), 1.0)
        high = np.full((1, 5), 3.0)
        # 90% of the mass at 1.0 -> the 50th percentile is the low atom;
        # 90% at 3.0 -> the high atom.
        mostly_low = fold_marker_states(np.stack([low, high]), [900, 100], 50.0)
        mostly_high = fold_marker_states(np.stack([low, high]), [100, 900], 50.0)
        assert mostly_low[0] == pytest.approx(1.0, abs=1e-3)
        assert mostly_high[0] == pytest.approx(3.0, abs=1e-3)

    def test_enriched_fractions_cover_target_and_extremes(self):
        for q in (50.0, 90.0, 95.0, 99.0):
            fractions = quantile_fold_fractions(q)
            assert fractions[0] == 0.0 and fractions[-1] == 1.0
            assert np.isclose(fractions, q / 100.0).any()
            assert np.all(np.diff(fractions) > 0)

    def test_validation(self):
        heights = np.zeros((2, 3, 5))
        with pytest.raises(ValueError, match="3-D"):
            fold_marker_states(np.zeros((3, 5)), [1], 90.0)
        with pytest.raises(ValueError, match="fractions"):
            fold_marker_states(heights, [1, 1], 90.0, fractions=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="positive sample count"):
            fold_marker_states(heights, [1, 0], 90.0)
        with pytest.raises(ValueError, match="target quantile"):
            fold_marker_states(
                heights, [1, 1], 90.0, fractions=np.array([0.0, 0.2, 0.4, 0.6, 1.0])
            )


class TestRunningPercentile:
    def test_peak_mode_uses_running_max(self):
        r = RunningPercentile(100.0)
        r.extend([1.0, 9.0, 4.0])
        assert r.value == 9.0
        assert r.q == 100.0

    def test_percentile_mode(self, rng):
        r = RunningPercentile(90.0)
        data = rng.uniform(size=2000)
        r.extend(data)
        assert r.value == pytest.approx(0.9, abs=0.05)

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError, match="0, 100"):
            RunningPercentile(0.0)
        with pytest.raises(ValueError, match="0, 100"):
            RunningPercentile(101.0)

    def test_reset(self):
        r = RunningPercentile(100.0)
        r.update(5.0)
        r.reset()
        assert r.count == 0


# ----------------------------------------------------------------------
# fold_marker_states against a transcribed reference
#
# ``_reference_fold_marker_states`` is a verbatim transcription of the
# unchunked, stream-major fold (one bisection over all streams at once).
# Any reimplementation of the fold must reproduce it byte for byte: the
# same float operations on the same values, and the same order of the
# count-weighted sum over states.  numpy sums a ``(states, streams)``
# product along axis 0 sequentially when there are two or more streams
# but pairwise when there is exactly one, so the order differs from 8
# states up; the corpus below pins both shapes.
# ----------------------------------------------------------------------

_REFERENCE_BISECTIONS = 12


def _reference_fold_marker_states(marker_heights, counts, q, fractions=None):
    heights = np.asarray(marker_heights)
    if not np.issubdtype(heights.dtype, np.floating):
        heights = heights.astype(float)
    dtype = heights.dtype
    if heights.ndim != 3:
        raise ValueError(f"marker_heights must stack to 3-D, got shape {heights.shape}")
    num_states, _, num_markers = heights.shape
    fr = p2_marker_fractions(q) if fractions is None else np.asarray(fractions, dtype=float)
    if fr.ndim != 1 or fr.size != num_markers:
        raise ValueError(
            f"{num_markers} markers per state but {fr.size} fractions"
        )
    p = q / 100.0
    target = int(np.argmin(np.abs(fr - p)))
    if not np.isclose(fr[target], p):
        raise ValueError(f"fractions must include the target quantile {p}")
    weights = np.asarray(counts, dtype=float)
    if weights.shape != (num_states,) or np.any(weights <= 0):
        raise ValueError("counts must supply one positive sample count per state")
    if num_states == 1:
        return heights[0, :, target].astype(float)
    weights = (weights / weights.sum()).astype(dtype)
    fr = fr.astype(dtype)
    p_t = dtype.type(p)
    half = dtype.type(0.5)

    low = heights[:, :, target].min(axis=0)
    high = heights[:, :, target].max(axis=0)
    for _ in range(_REFERENCE_BISECTIONS):
        mid = half * (low + high)
        idx = (mid[None, :, None] >= heights).sum(axis=2)
        cell = np.clip(idx, 1, num_markers - 1)
        lower = np.take_along_axis(heights, (cell - 1)[:, :, None], axis=2)[..., 0]
        upper = np.take_along_axis(heights, cell[:, :, None], axis=2)[..., 0]
        span = upper - lower
        sloped = span > 0.0
        t = np.where(sloped, (mid - lower) / np.where(sloped, span, dtype.type(1.0)), mid >= upper)
        np.clip(t, 0.0, 1.0, out=t)
        mixture = (weights[:, None] * (fr[cell - 1] + t * (fr[cell] - fr[cell - 1]))).sum(axis=0)
        above = mixture >= p_t
        high = np.where(above, mid, high)
        low = np.where(above, low, mid)
    return high.astype(float)


def _marker_states(rng, num_states, num_streams, num_markers, dtype, kind="lognormal"):
    """``(states, streams, markers)`` non-decreasing marker heights.

    ``kind="atoms"`` draws from a few levels, so rows repeat heights and
    whole states sit on one value; ``"zeros"`` is an idle population.
    """
    shape = (num_states, num_streams, num_markers)
    if kind == "zeros":
        return np.zeros(shape, dtype=dtype)
    if kind == "atoms":
        values = rng.choice([0.0, 0.5, 1.0, 2.0], size=shape)
    else:
        values = rng.lognormal(0.0, 0.6, size=shape) * rng.uniform(0.2, 3.0, size=(num_states, 1, 1))
    return np.sort(values, axis=2).astype(dtype)


def _assert_fold_bytes_equal(heights, counts, q, fractions):
    expected = _reference_fold_marker_states(heights, counts, q, fractions)
    # A stacked array and a list of per-state arrays (which the fold reads
    # without stacking) must fold alike.
    for given in (heights, list(heights)):
        folded = fold_marker_states(given, counts, q, fractions)
        assert folded.dtype == expected.dtype
        assert folded.shape == expected.shape
        assert folded.tobytes() == expected.tobytes()


#: Stream counts straddling the fold's stream-chunk size (8192 streams).
_CHUNK_EDGES = (8191, 8192, 8193)


class TestFoldMatchesReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("q", [50.0, 90.0, 99.0])
    @pytest.mark.parametrize("grid", ["p2", "enriched"])
    @pytest.mark.parametrize("num_states", [1, 2, 3, 4])
    def test_seeded_corpus(self, dtype, q, grid, num_states):
        rng = np.random.default_rng([int(q), num_states, np.dtype(dtype).itemsize])
        fractions = p2_marker_fractions(q) if grid == "p2" else quantile_fold_fractions(q)
        counts = rng.integers(1, 400, size=num_states)
        for kind in ("lognormal", "atoms", "zeros"):
            for num_streams in (0, 1, 2, 7, 300):
                heights = _marker_states(rng, num_states, num_streams, fractions.size, dtype, kind)
                _assert_fold_bytes_equal(heights, counts, q, fractions)

    @pytest.mark.parametrize("num_streams", _CHUNK_EDGES)
    @pytest.mark.parametrize("num_states", [3, 12])
    def test_streams_either_side_of_the_chunk(self, num_streams, num_states):
        rng = np.random.default_rng(num_streams)
        fractions = quantile_fold_fractions(90.0)
        heights = _marker_states(rng, num_states, num_streams, fractions.size, np.float32)
        heights[:, ::5] = _marker_states(
            rng, num_states, heights[:, ::5].shape[1], fractions.size, np.float32, "atoms"
        )
        counts = rng.integers(1, 400, size=num_states)
        _assert_fold_bytes_equal(heights, counts, 90.0, fractions)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_states", [8, 12, 40])
    def test_many_states_one_stream(self, dtype, num_states):
        """The sharded-tier shape: a deep stack of states, one stream."""
        rng = np.random.default_rng(num_states)
        fractions = p2_marker_fractions(90.0)
        for kind in ("lognormal", "atoms"):
            heights = _marker_states(rng, num_states, 1, fractions.size, dtype, kind)
            counts = rng.integers(1, 400, size=num_states)
            _assert_fold_bytes_equal(heights, counts, 90.0, fractions)

    @pytest.mark.parametrize("num_streams", [1, 2, 3])
    def test_sum_order_over_many_states(self, num_streams):
        """Equal counts over constant streams at distinct levels put the
        mixture exactly on p at some probes, where only the order of the
        sum over states decides the comparison."""
        fractions = p2_marker_fractions(50.0)
        for num_states, dtype in ((20, np.float64), (24, np.float32)):
            levels = np.arange(num_states, dtype=float)[:, None, None]
            heights = np.broadcast_to(levels, (num_states, num_streams, fractions.size))
            _assert_fold_bytes_equal(heights.astype(dtype), [7] * num_states, 50.0, fractions)

    def test_list_of_states_and_integer_heights(self, rng):
        fractions = p2_marker_fractions(90.0)
        states = [np.sort(rng.integers(0, 5, size=(6, 5)), axis=1) for _ in range(3)]
        _assert_fold_bytes_equal(states, [10, 20, 30], 90.0, None)
        _assert_fold_bytes_equal(np.stack(states), [10, 20, 30], 90.0, fractions)
        # Mixed float widths fold in the dtype they would stack to.
        widths = (np.float32, np.float64, np.float32)
        mixed = [np.sort(rng.lognormal(size=(300, 5)), axis=1).astype(w) for w in widths]
        _assert_fold_bytes_equal(mixed, [10, 20, 30], 90.0, fractions)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_states=st.integers(1, 10),
        num_streams=st.integers(0, 40),
        q=st.sampled_from([50.0, 90.0, 99.0]),
        grid=st.sampled_from(["p2", "enriched", "target-only"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        kind=st.sampled_from(["lognormal", "atoms", "zeros"]),
        unsorted=st.booleans(),
    )
    def test_hypothesis(self, seed, num_states, num_streams, q, grid, dtype, kind, unsorted):
        rng = np.random.default_rng(seed)
        if grid == "p2":
            fractions = p2_marker_fractions(q)
        elif grid == "enriched":
            fractions = quantile_fold_fractions(q)
        else:
            fractions = np.array([q / 100.0])
        heights = _marker_states(rng, num_states, num_streams, fractions.size, dtype, kind)
        if unsorted:
            heights = rng.permuted(heights, axis=2)
        counts = rng.uniform(0.5, 500.0, size=num_states)
        _assert_fold_bytes_equal(heights, counts, q, fractions)


# ----------------------------------------------------------------------
# BatchPSquare's P² step against a transcribed reference
#
# ``_reference_absorb_markers`` and ``_ReferenceBatchPSquare`` transcribe
# the stream-major P² kernel and the ``update``/``fold_window`` drivers
# as they stood when every sample read strided ``(n_streams, 5)``
# columns and every stream ran the parabolic/linear step.  The lockstep
# test above compares two callers of one kernel, so a rewrite of the
# kernel itself would pass it; these tests require the stored state and
# its snapshot to stay byte-identical to the transcription.
# ----------------------------------------------------------------------


def _reference_absorb_markers(values, heights, positions, desired, increments):
    low = values < heights[:, 0]
    high = values >= heights[:, 4]
    heights[low, 0] = values[low]
    heights[high, 4] = values[high]
    cell = (values[:, None] >= heights[:, 1:4]).sum(axis=1)
    cell[low] = 0
    cell[high] = 3
    positions += np.arange(5) > cell[:, None]
    desired += increments
    for i in (1, 2, 3):
        delta = desired[:, i] - positions[:, i]
        step_up = positions[:, i + 1] - positions[:, i]
        step_down = positions[:, i - 1] - positions[:, i]
        move = ((delta >= 1.0) & (step_up > 1.0)) | ((delta <= -1.0) & (step_down < -1.0))
        if not move.any():
            continue
        direction = np.where(delta >= 1.0, 1.0, -1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            span = positions[:, i + 1] - positions[:, i - 1]
            upper = (positions[:, i] - positions[:, i - 1] + direction) * (
                (heights[:, i + 1] - heights[:, i]) / (positions[:, i + 1] - positions[:, i])
            )
            lower = (positions[:, i + 1] - positions[:, i] - direction) * (
                (heights[:, i] - heights[:, i - 1]) / (positions[:, i] - positions[:, i - 1])
            )
            candidate = heights[:, i] + direction / span * (upper + lower)
            parabolic_ok = (heights[:, i - 1] < candidate) & (candidate < heights[:, i + 1])
            neighbour_h = np.where(direction > 0, heights[:, i + 1], heights[:, i - 1])
            neighbour_p = np.where(direction > 0, positions[:, i + 1], positions[:, i - 1])
            linear = heights[:, i] + direction * (neighbour_h - heights[:, i]) / (
                neighbour_p - positions[:, i]
            )
        adjusted = np.where(parabolic_ok, candidate, linear)
        heights[move, i] = adjusted[move]
        positions[move, i] += direction[move]


class _ReferenceBatchPSquare(BatchPSquare):
    """The estimator with the transcribed ``update``/``fold_window``."""

    __slots__ = ()

    def update(self, values):
        data = np.asarray(values, dtype=float)
        if data.shape != (self._n,):
            raise ValueError(f"expected {self._n} values, got shape {data.shape}")
        if self._counts is None:
            if self._count < 5:
                self._initial[:, self._count] = data
                self._count += 1
                if self._count == 5:
                    self._heights = np.sort(self._initial, axis=1)
                    self._positions = np.tile(np.arange(1.0, 6.0), (self._n, 1))
                return
            self._reference_absorb(data)
            self._count += 1
            return
        counts = self._counts
        warm = counts < 5
        if warm.any():
            rows = np.flatnonzero(warm)
            self._initial[rows, counts[rows]] = data[rows]
            mature = np.flatnonzero(~warm)
            if mature.size:
                self._reference_absorb_rows(data, mature)
            counts += 1
            seeded = rows[counts[rows] == 5]
            if seeded.size:
                self._heights[seeded] = np.sort(self._initial[seeded], axis=1)
                self._positions[seeded] = np.arange(1.0, 6.0)
        else:
            self._reference_absorb(data)
            counts += 1
        self._count = int(counts.min())
        if self._count == int(counts.max()):
            self._counts = None

    def _reference_absorb(self, values):
        _reference_absorb_markers(
            values, self._heights, self._positions, self._desired, self._increments
        )

    def _reference_absorb_rows(self, values, rows):
        heights = self._heights[rows]
        positions = self._positions[rows]
        desired = self._desired[rows]
        _reference_absorb_markers(values[rows], heights, positions, desired, self._increments)
        self._heights[rows] = heights
        self._positions[rows] = positions
        self._desired[rows] = desired

    def fold_window(self, block):
        data = np.asarray(block, dtype=float)
        if data.ndim != 2 or data.shape[1] != self._n:
            raise ValueError(
                f"expected a (num_samples, {self._n}) block, got shape {data.shape}"
            )
        start = 0
        while self._count < 5 and start < data.shape[0]:
            self.update(data[start])
            start += 1
        if self._counts is None:
            for row in data[start:]:
                self._reference_absorb(row)
                self._count += 1
        else:
            for row in data[start:]:
                self._reference_absorb(row)
                self._counts += 1
                self._count += 1


def _p2_samples(rng, num_samples, num_streams, kind):
    """A ``(samples, streams)`` block of non-negative utilizations."""
    shape = (num_samples, num_streams)
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "ties":
        return rng.choice([0.0, 0.25, 0.5, 1.0], size=shape)
    if kind == "identical":
        return np.repeat(rng.lognormal(0.0, 0.5, size=(num_samples, 1)), num_streams, axis=1)
    return rng.lognormal(0.0, 0.6, size=shape) * rng.uniform(0.2, 3.0, size=num_streams)


def _assert_p2_states_equal(estimator, reference):
    assert pickle.dumps(estimator.snapshot()) == pickle.dumps(reference.snapshot())
    for name in ("_initial", "_heights", "_positions", "_desired"):
        array = getattr(estimator, name)
        assert array.dtype == np.float64 and array.flags.c_contiguous, name
    counts = reference.stream_counts()
    if counts.size and counts.min() == counts.max() > 0:
        heights, count = estimator.marker_state()
        expected, expected_count = reference.marker_state()
        assert count == expected_count
        assert heights.tobytes() == expected.tobytes()


def _run_p2_pair(q, num_streams, steps):
    """Drive a live and a reference estimator through the same steps.

    ``steps`` holds ``("fold", block)``, ``("update", row)`` and
    ``("remap", mapping)`` entries; states are compared after each one.
    """
    estimator = BatchPSquare(q, num_streams)
    reference = _ReferenceBatchPSquare(q, num_streams)
    for op, arg in steps:
        for target in (estimator, reference):
            if op == "fold":
                target.fold_window(arg)
            elif op == "update":
                target.update(arg)
            else:
                target.remap_streams(arg)
        _assert_p2_states_equal(estimator, reference)


_P2_QS = (10.0, 50.0, 90.0, 99.0)
_P2_KINDS = ("lognormal", "ties", "zeros", "identical")


class TestPSquareStepMatchesReference:
    @pytest.mark.parametrize("q", _P2_QS)
    @pytest.mark.parametrize("kind", _P2_KINDS)
    def test_seeded_corpus(self, q, kind):
        rng = np.random.default_rng([int(q), _P2_KINDS.index(kind)])
        for num_streams, num_samples in (
            (1, 1), (1, 200), (2, 6), (3, 5), (7, 37), (64, 120), (300, 200), (1500, 60),
        ):
            block = _p2_samples(rng, num_samples, num_streams, kind)
            _run_p2_pair(q, num_streams, [("fold", block)])

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["lognormal", "ties"])
    def test_fold_after_warm_up_updates(self, start, kind):
        """The warm-up hand-off lands inside the folded window."""
        rng = np.random.default_rng([start, len(kind)])
        block = _p2_samples(rng, start + 40, 50, kind)
        steps = [("update", row) for row in block[:start]] + [("fold", block[start:])]
        _run_p2_pair(90.0, 50, steps)

    @pytest.mark.parametrize("q", [10.0, 90.0])
    def test_window_split_across_calls(self, q):
        rng = np.random.default_rng(int(q))
        block = _p2_samples(rng, 120, 200, "lognormal")
        steps = [
            ("fold", block[:3]),
            ("update", block[3]),
            ("fold", block[4:9]),
            ("fold", block[9:9]),
            ("update", block[9]),
            ("fold", block[10:70]),
            ("update", block[70]),
            ("fold", block[71:]),
        ]
        _run_p2_pair(q, 200, steps)

    @pytest.mark.parametrize("kind", ["lognormal", "ties"])
    def test_heterogeneous_counts_after_remap(self, kind):
        """Fresh streams warm up inside bulk folds over mature ones."""
        rng = np.random.default_rng(len(kind))
        steps = [("fold", _p2_samples(rng, 30, 40, kind))]
        # Drop some streams, reorder the rest, seed fresh ones.
        mapping = np.concatenate([rng.permutation(40)[:30], [-1] * 12])
        steps.append(("remap", mapping))
        steps.append(("fold", _p2_samples(rng, 3, 42, kind)))
        steps.append(("update", _p2_samples(rng, 1, 42, kind)[0]))
        steps.append(("remap", np.concatenate([np.arange(42), [-1] * 5])))
        steps.append(("fold", _p2_samples(rng, 4, 47, kind)))
        steps.append(("fold", _p2_samples(rng, 50, 47, kind)))
        steps.append(("update", _p2_samples(rng, 1, 47, kind)[0]))
        steps.append(("fold", _p2_samples(rng, 20, 47, kind)))
        _run_p2_pair(75.0, 40, steps)

    @pytest.mark.parametrize("num_streams", [8191, 8192, 8193, 16385])
    def test_streams_either_side_of_the_chunk(self, num_streams):
        rng = np.random.default_rng(num_streams)
        block = _p2_samples(rng, 14, num_streams, "lognormal")
        block[:, ::3] = _p2_samples(rng, 14, block[:, ::3].shape[1], "ties")
        _run_p2_pair(90.0, num_streams, [("fold", block[:3]), ("fold", block[3:])])

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_stream_chunk_invariant(self, chunk, monkeypatch):
        """Streams are independent: any chunking folds to the same bytes."""
        monkeypatch.setattr(stats, "_FOLD_STREAMS", chunk)
        rng = np.random.default_rng(chunk)
        steps = [("fold", _p2_samples(rng, 40, 150, "lognormal"))]
        steps.append(("remap", np.concatenate([np.arange(150), [-1] * 9])))
        steps.append(("fold", _p2_samples(rng, 30, 159, "ties")))
        _run_p2_pair(50.0, 150, steps)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_streams=st.integers(1, 60),
        q=st.sampled_from(_P2_QS),
        kind=st.sampled_from(_P2_KINDS),
        pieces=st.lists(st.integers(0, 40), min_size=1, max_size=4),
        remap=st.booleans(),
    )
    def test_hypothesis(self, seed, num_streams, q, kind, pieces, remap):
        rng = np.random.default_rng(seed)
        steps = []
        width = num_streams
        for k, length in enumerate(pieces):
            if remap and k == 1:
                keep = rng.permutation(width)[: max(1, width // 2)]
                mapping = np.concatenate([keep, [-1] * int(rng.integers(0, 5))])
                steps.append(("remap", mapping))
                width = mapping.size
            if length == 1:
                steps.append(("update", _p2_samples(rng, 1, width, kind)[0]))
            else:
                steps.append(("fold", _p2_samples(rng, length, width, kind)))
        _run_p2_pair(q, num_streams, steps)
