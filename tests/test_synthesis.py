"""Tests for repro.traces.synthesis — lognormal coarse-to-fine refinement."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.synthesis import (
    STREAM_LAYOUTS,
    refine_trace,
    refine_trace_set,
    synthesize_fine_grained,
    synthesize_population,
)
from repro.traces.trace import TraceSet, UtilizationTrace


class TestSynthesizeFineGrained:
    def test_expansion_length(self, rng):
        fine = synthesize_fine_grained([1.0, 2.0], 300.0, 5.0, rng=rng)
        assert fine.size == 120

    def test_sigma_zero_is_step_function(self):
        fine = synthesize_fine_grained([1.0, 2.0], 10.0, 5.0, sigma=0.0)
        assert list(fine) == [1.0, 1.0, 2.0, 2.0]

    def test_zero_mean_windows_stay_zero(self, rng):
        fine = synthesize_fine_grained([0.0, 1.0], 10.0, 5.0, rng=rng)
        assert fine[0] == 0.0 and fine[1] == 0.0
        assert fine[2] > 0.0

    def test_exact_mean_matching(self, rng):
        fine = synthesize_fine_grained(
            [2.0, 5.0], 300.0, 5.0, rng=rng, match_means_exactly=True
        )
        assert fine[:60].mean() == pytest.approx(2.0)
        assert fine[60:].mean() == pytest.approx(5.0)

    def test_statistical_mean_preservation(self, rng):
        fine = synthesize_fine_grained([3.0] * 50, 300.0, 5.0, sigma=0.3, rng=rng)
        assert fine.mean() == pytest.approx(3.0, rel=0.05)

    def test_samples_non_negative(self, rng):
        fine = synthesize_fine_grained([0.5, 1.5], 300.0, 5.0, sigma=1.0, rng=rng)
        assert np.all(fine >= 0.0)

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError, match="integer multiple"):
            synthesize_fine_grained([1.0], 10.0, 3.0)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            synthesize_fine_grained([-1.0], 10.0, 5.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            synthesize_fine_grained([1.0], 10.0, 5.0, sigma=-0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            synthesize_fine_grained([], 10.0, 5.0)

    def test_deterministic_with_seeded_rng(self):
        a = synthesize_fine_grained([1.0], 10.0, 5.0, rng=np.random.default_rng(1))
        b = synthesize_fine_grained([1.0], 10.0, 5.0, rng=np.random.default_rng(1))
        assert np.array_equal(a, b)


class TestRefineTrace:
    def test_period_and_name_preserved(self, rng):
        coarse = UtilizationTrace([1.0, 2.0], 300.0, "vm")
        fine = refine_trace(coarse, 5.0, rng=rng)
        assert fine.period_s == 5.0
        assert fine.name == "vm"
        assert fine.num_samples == 120

    def test_cap_applies(self, rng):
        coarse = UtilizationTrace([3.9] * 10, 300.0, "vm")
        fine = refine_trace(coarse, 5.0, sigma=1.0, rng=rng, cap=4.0)
        assert fine.peak() <= 4.0

    def test_refine_set(self, rng):
        coarse = TraceSet.from_mapping({"a": [1.0, 2.0], "b": [2.0, 1.0]}, 300.0)
        fine = refine_trace_set(coarse, 5.0, rng=rng)
        assert fine.num_traces == 2
        assert fine.num_samples == 120
        assert fine.period_s == 5.0

    def test_refined_coarse_round_trip_means(self, rng):
        coarse = TraceSet.from_mapping({"a": [1.0, 3.0, 2.0, 4.0]}, 300.0)
        fine = refine_trace_set(coarse, 5.0, sigma=0.1, rng=rng)
        back = fine.resampled(300.0)
        assert np.allclose(back.matrix, coarse.matrix, rtol=0.15)


class TestStreamLayouts:
    """The versioned RNG stream-layout contract (v1 legacy / v2 batched)."""

    def _coarse(self, num_vms: int = 5, windows: int = 8) -> TraceSet:
        rng = np.random.default_rng(42)
        return TraceSet(
            UtilizationTrace(rng.uniform(0.0, 3.5, windows), 300.0, f"vm{i:02d}")
            for i in range(num_vms)
        )

    def test_layout_registry(self):
        assert STREAM_LAYOUTS == ("v1", "v2")

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="stream_layout"):
            synthesize_fine_grained([1.0], 10.0, 5.0, stream_layout="v3")
        with pytest.raises(ValueError, match="stream_layout"):
            refine_trace_set(self._coarse(), 5.0, stream_layout="legacy")

    def test_v1_is_byte_identical_to_legacy_per_window_draws(self):
        """The v1 layout must keep reproducing pre-versioning populations:
        this transcribes the original per-window ``rng.lognormal`` loop
        and demands exact equality, draw for draw."""
        sigma = 0.3
        means = np.array([0.8, 0.0, 2.5, 1.1])
        factor = 6
        ours = synthesize_fine_grained(
            means, 30.0, 5.0, sigma=sigma, rng=np.random.default_rng(9),
            stream_layout="v1",
        )
        rng = np.random.default_rng(9)
        expected = np.empty(means.size * factor)
        mu_shift = sigma * sigma / 2.0
        for i, m in enumerate(means):
            block = slice(i * factor, (i + 1) * factor)
            if m <= 0.0:
                expected[block] = 0.0
                continue
            expected[block] = rng.lognormal(
                mean=math.log(m) - mu_shift, sigma=sigma, size=factor
            )
        assert np.array_equal(ours, expected)

    def test_default_layout_is_v1(self):
        coarse = self._coarse()
        default = refine_trace_set(coarse, 5.0, rng=np.random.default_rng(3))
        explicit = refine_trace_set(
            coarse, 5.0, rng=np.random.default_rng(3), stream_layout="v1"
        )
        assert np.array_equal(default.matrix, explicit.matrix)

    def test_v2_is_seeded_deterministic(self):
        coarse = self._coarse()
        a = refine_trace_set(
            coarse, 5.0, rng=np.random.default_rng(7), stream_layout="v2"
        )
        b = refine_trace_set(
            coarse, 5.0, rng=np.random.default_rng(7), stream_layout="v2"
        )
        assert np.array_equal(a.matrix, b.matrix)
        assert a.names == coarse.names
        assert a.period_s == 5.0

    def test_v2_differs_from_v1_but_matches_statistically(self):
        coarse = self._coarse(num_vms=10, windows=40)
        v1 = refine_trace_set(
            coarse, 5.0, sigma=0.2, rng=np.random.default_rng(5), stream_layout="v1"
        )
        v2 = refine_trace_set(
            coarse, 5.0, sigma=0.2, rng=np.random.default_rng(5), stream_layout="v2"
        )
        assert not np.array_equal(v1.matrix, v2.matrix)
        # Same distribution family and window means: coarse-grain both
        # back and they reproduce the same coarse population.
        assert np.allclose(
            v1.resampled(300.0).matrix, v2.resampled(300.0).matrix, rtol=0.2, atol=0.05
        )

    def test_v2_single_trace_matches_population_row(self):
        """A 1-VM population and the single-trace v2 helper consume the
        stream identically."""
        means = np.array([1.0, 0.5, 2.0])
        single = synthesize_fine_grained(
            means, 30.0, 5.0, sigma=0.4, rng=np.random.default_rng(11),
            stream_layout="v2",
        )
        population = synthesize_population(
            means[None, :], 30.0, 5.0, sigma=0.4, rng=np.random.default_rng(11)
        )
        assert np.array_equal(single, population[0])

    def test_v2_zero_mean_windows_stay_zero_and_consume_draws(self):
        means = np.array([[0.0, 1.0], [2.0, 0.0]])
        fine = synthesize_population(
            means, 10.0, 5.0, sigma=0.5, rng=np.random.default_rng(2)
        )
        assert np.array_equal(fine[0, :2], [0.0, 0.0])
        assert np.array_equal(fine[1, 2:], [0.0, 0.0])
        assert np.all(fine[0, 2:] > 0) and np.all(fine[1, :2] > 0)
        # The zero windows still consumed stream positions: a population
        # without them produces different draws for the live cells.
        alive = synthesize_population(
            means[:1, 1:], 10.0, 5.0, sigma=0.5, rng=np.random.default_rng(2)
        )
        assert not np.array_equal(fine[0, 2:], alive[0])

    def test_v2_statistical_mean_preservation(self):
        means = np.full((3, 50), 3.0)
        fine = synthesize_population(
            means, 300.0, 5.0, sigma=0.3, rng=np.random.default_rng(8)
        )
        assert fine.mean() == pytest.approx(3.0, rel=0.05)

    def test_v2_exact_mean_matching(self):
        means = np.array([[2.0, 5.0]])
        fine = synthesize_population(
            means, 300.0, 5.0, rng=np.random.default_rng(4), match_means_exactly=True
        )
        assert fine[0, :60].mean() == pytest.approx(2.0)
        assert fine[0, 60:].mean() == pytest.approx(5.0)

    def test_v2_sigma_zero_is_step_function(self):
        fine = synthesize_population(np.array([[1.0, 2.0]]), 10.0, 5.0, sigma=0.0)
        assert fine.tolist() == [[1.0, 1.0, 2.0, 2.0]]

    def test_v2_cap_applies(self):
        coarse = TraceSet.from_mapping({"a": [3.9] * 10}, 300.0)
        fine = refine_trace_set(
            coarse, 5.0, sigma=1.0, rng=np.random.default_rng(1), cap=4.0,
            stream_layout="v2",
        )
        assert fine["a"].peak() <= 4.0

    def test_population_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            synthesize_population(np.array([1.0]), 10.0, 5.0)
        with pytest.raises(ValueError, match="non-negative"):
            synthesize_population(np.array([[-1.0]]), 10.0, 5.0)
        with pytest.raises(ValueError, match="sigma"):
            synthesize_population(np.array([[1.0]]), 10.0, 5.0, sigma=-0.2)
        with pytest.raises(ValueError, match="integer multiple"):
            synthesize_population(np.array([[1.0]]), 10.0, 3.0)


# ----------------------------------------------------------------------
# synthesize_population against a transcribed reference
# ----------------------------------------------------------------------
# ``_reference_synthesize_population`` transcribes the v2 kernel as it
# stood before it scaled the fine matrix in place: the per-window scale
# was ``np.repeat``-ed to a full (num_vms, num_windows * factor) copy and
# multiplied in.  Element-wise products do not depend on how the scale
# is broadcast, so the in-place kernel must reproduce it byte for byte.
def _reference_synthesize_population(
    coarse_matrix, coarse_period_s, fine_period_s, sigma, rng, match_means_exactly
):
    means = np.asarray(coarse_matrix, dtype=float)
    factor = int(round(coarse_period_s / fine_period_s))
    if sigma == 0.0:
        return np.repeat(means, factor, axis=1)
    num_vms, num_windows = means.shape
    fine = rng.standard_normal(size=(num_vms, num_windows * factor))
    np.multiply(fine, sigma, out=fine)
    np.exp(fine, out=fine)
    scale = np.repeat(means * math.exp(-sigma * sigma / 2.0), factor, axis=1)
    np.multiply(fine, scale, out=fine)
    if match_means_exactly:
        blocks = fine.reshape(num_vms, num_windows, factor)
        empirical = blocks.mean(axis=2)
        rescale = np.divide(
            means, empirical, out=np.ones_like(means), where=empirical > 0
        )
        np.multiply(blocks, rescale[:, :, None], out=blocks)
    return fine


@st.composite
def _coarse_populations(draw):
    num_vms = draw(st.integers(min_value=1, max_value=4))
    num_windows = draw(st.integers(min_value=1, max_value=5))
    # Zero-mean windows are drawn often: they scale to exactly zero.
    window_mean = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))
    cells = draw(
        st.lists(window_mean, min_size=num_vms * num_windows, max_size=num_vms * num_windows)
    )
    return np.array(cells, dtype=float).reshape(num_vms, num_windows)


class TestPopulationKernelOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        means=_coarse_populations(),
        factor=st.integers(min_value=1, max_value=6),
        sigma=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.5)),
        match_means_exactly=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_transcribed_kernel(self, means, factor, sigma, match_means_exactly, seed):
        coarse_period_s = 5.0 * factor
        ours = synthesize_population(
            means, coarse_period_s, 5.0, sigma=sigma,
            rng=np.random.default_rng(seed), match_means_exactly=match_means_exactly,
        )
        expected = _reference_synthesize_population(
            means, coarse_period_s, 5.0, sigma, np.random.default_rng(seed),
            match_means_exactly,
        )
        assert ours.dtype == expected.dtype
        assert ours.flags.c_contiguous and expected.flags.c_contiguous
        assert np.array_equal(ours, expected)
