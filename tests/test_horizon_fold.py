"""Rolling-horizon cost tracking: exact folding and the gated P² mode.

The contract split (see docs/architecture.md):

* peak references fold per-window parts **bit-exactly** in either mode;
* percentile references under ``mode="exact"`` rebuild the concatenated
  horizon — bit-identical to building :class:`CostMatrix` from the
  concatenation directly (the pre-fold reference behaviour);
* percentile references under ``mode="p2"`` fold per-window quantile
  marker states — **approximate but bounded**, the deviation against
  the exact rebuild pinned here and gated at N=1000 in
  ``benchmarks/bench_scaling.py`` (``horizon_percentile``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import quantile_fold_fractions
from repro.core.correlation import (
    CostMatrix,
    RollingCostHorizon,
    StreamingCostMatrix,
    _cost_matrix_from_parts,
    _pair_sum_blocks,
)
from repro.core.manager import ManagerConfig, PowerManager
from repro.sim.approaches import ProposedApproach
from repro.traces.trace import ReferenceSpec, TraceSet


def _window(rng, names, samples=60, level=1.0, sigma=0.4):
    matrix = rng.lognormal(np.log(level), sigma, size=(len(names), samples))
    matrix.flags.writeable = False
    return TraceSet.from_matrix(matrix, names, 5.0)


def _concat(windows):
    joined = np.concatenate([w.matrix for w in windows], axis=1)
    joined.flags.writeable = False
    return TraceSet.from_matrix(joined, windows[0].names, windows[0].period_s)


NAMES = tuple(f"vm{i:02d}" for i in range(10))


class TestExactMode:
    @pytest.mark.parametrize("spec", [ReferenceSpec(100.0), ReferenceSpec(90.0)])
    def test_bit_identical_to_concatenated_rebuild(self, spec, rng):
        tracker = RollingCostHorizon(spec, horizon_periods=3, mode="exact")
        windows = [_window(rng, NAMES) for _ in range(6)]
        for period, window in enumerate(windows):
            folded = tracker.push(window)
            reference = CostMatrix.from_traces(
                _concat(windows[max(0, period - 2) : period + 1]), spec
            )
            assert np.array_equal(folded.as_array(), reference.as_array())
            assert folded.references() == reference.references()

    def test_horizon_of_one_is_the_window_itself(self, rng):
        tracker = RollingCostHorizon(ReferenceSpec(90.0), horizon_periods=1)
        window = _window(rng, NAMES)
        direct = CostMatrix.from_traces(window, ReferenceSpec(90.0))
        assert np.array_equal(tracker.push(window).as_array(), direct.as_array())

    def test_population_change_restarts_the_horizon(self, rng):
        spec = ReferenceSpec(90.0)
        tracker = RollingCostHorizon(spec, horizon_periods=3, mode="exact")
        for _ in range(3):
            tracker.push(_window(rng, NAMES))
        renamed = tuple(f"other{i}" for i in range(len(NAMES)))
        fresh = _window(rng, renamed)
        folded = tracker.push(fresh)
        direct = CostMatrix.from_traces(fresh, spec)
        assert np.array_equal(folded.as_array(), direct.as_array())

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            RollingCostHorizon(horizon_periods=0)
        with pytest.raises(ValueError, match="exact.*p2"):
            RollingCostHorizon(mode="approximate")


class TestP2Mode:
    def test_peak_references_stay_bit_exact(self, rng):
        exact = RollingCostHorizon(ReferenceSpec(), 3, "exact")
        p2 = RollingCostHorizon(ReferenceSpec(), 3, "p2")
        for _ in range(5):
            window = _window(rng, NAMES)
            assert np.array_equal(
                exact.push(window).as_array(), p2.push(window).as_array()
            )

    def test_first_period_matches_exact_build(self, rng):
        spec = ReferenceSpec(90.0)
        tracker = RollingCostHorizon(spec, 3, "p2")
        window = _window(rng, NAMES)
        folded = tracker.push(window)
        direct = CostMatrix.from_traces(window, spec)
        # Single-window fold short-circuits to the window's own quantile
        # markers; only float32 marker storage separates the two.
        np.testing.assert_allclose(
            folded.as_array(), direct.as_array(), rtol=1e-5
        )

    @pytest.mark.parametrize("q", [90.0, 95.0, 99.0])
    def test_deviation_from_exact_rebuild_is_bounded(self, q, rng):
        """The acceptance bound: per-entry cost deviation under diurnal
        level drift stays within the documented 10%."""
        spec = ReferenceSpec(q)
        p2 = RollingCostHorizon(spec, 3, "p2")
        exact = RollingCostHorizon(spec, 3, "exact")
        for period in range(6):
            level = 1.0 + 0.2 * np.sin(period)
            window = _window(rng, NAMES, samples=120, level=level)
            folded = p2.push(window)
            reference = exact.push(window)
            np.testing.assert_allclose(
                folded.as_array(), reference.as_array(), rtol=0.1
            )
            for name in NAMES:
                assert folded.reference(name) == pytest.approx(
                    reference.reference(name), rel=0.1
                )

    def test_idle_and_constant_vms_fold_cleanly(self, rng):
        """Atoms (all-zero and constant traces) must not smear: the
        folded references and costs stay glued to the exact rebuild."""
        spec = ReferenceSpec(90.0)
        p2 = RollingCostHorizon(spec, 3, "p2")
        exact = RollingCostHorizon(spec, 3, "exact")
        names = tuple(f"v{i}" for i in range(9))
        for _ in range(4):
            matrix = np.vstack(
                [
                    np.zeros((3, 60)),
                    np.full((3, 60), 2.0),
                    rng.uniform(0.0, 3.0, size=(3, 60)),
                ]
            )
            window = TraceSet.from_matrix(matrix, names, 5.0)
            folded = p2.push(window)
            reference = exact.push(window)
            np.testing.assert_allclose(
                folded.as_array(), reference.as_array(), atol=0.05
            )

    def test_population_change_restarts_the_fold(self, rng):
        spec = ReferenceSpec(90.0)
        tracker = RollingCostHorizon(spec, 3, "p2")
        for _ in range(3):
            tracker.push(_window(rng, NAMES))
        renamed = tuple(f"other{i}" for i in range(len(NAMES)))
        fresh = _window(rng, renamed)
        folded = tracker.push(fresh)
        direct = CostMatrix.from_traces(fresh, spec)
        np.testing.assert_allclose(folded.as_array(), direct.as_array(), rtol=1e-5)

    def test_reset_forgets_the_horizon(self, rng):
        spec = ReferenceSpec(90.0)
        tracker = RollingCostHorizon(spec, 3, "p2")
        for _ in range(3):
            tracker.push(_window(rng, NAMES, level=3.0))
        tracker.reset()
        window = _window(rng, NAMES, level=1.0)
        folded = tracker.push(window)
        direct = CostMatrix.from_traces(window, spec)
        np.testing.assert_allclose(folded.as_array(), direct.as_array(), rtol=1e-5)


class TestMarkerParts:
    def test_pair_markers_match_per_pair_percentiles(self, rng):
        spec = ReferenceSpec(90.0)
        window = _window(rng, NAMES[:6])
        fractions = quantile_fold_fractions(spec.percentile)
        singles, pairs, count = CostMatrix.marker_parts(window, spec, fractions)
        assert count == window.num_samples
        data = window.matrix
        np.testing.assert_allclose(
            singles, np.percentile(data, fractions * 100.0, axis=1).T, atol=1e-9
        )
        rows, cols = np.triu_indices(6, k=1)
        expected = np.percentile(data[rows] + data[cols], fractions * 100.0, axis=1).T
        np.testing.assert_allclose(pairs, expected, rtol=1e-5)

    def test_rejects_peak_spec(self, rng):
        with pytest.raises(ValueError, match="peak"):
            CostMatrix.marker_parts(_window(rng, NAMES), ReferenceSpec())


def _reduce_pairs(kind, window):
    """The pairwise reduction ``kind`` of one window, as a tuple of arrays."""
    if kind == "reference_parts":
        return CostMatrix.reference_parts(window, ReferenceSpec())
    if kind == "marker_parts":
        return CostMatrix.marker_parts(window, ReferenceSpec(90.0))[:2]
    streaming = StreamingCostMatrix(window.names)
    streaming.fold_window(window.matrix)
    state = streaming.snapshot()
    return state["single_peak"], state["pair_peak"]


class TestPairSumBlocks:
    """Every pairwise row-block reduction is blocking-invariant, bit for bit."""

    @pytest.mark.parametrize("kind", ["reference_parts", "marker_parts", "fold_window"])
    def test_block_size_invariant(self, kind, rng, monkeypatch):
        from repro.core import correlation

        window = _window(rng, NAMES)
        default = _reduce_pairs(kind, window)
        # One float32 row (half a float64 row) per block, then a single
        # pair per block: every row split into one-column blocks.
        for budget in (4 * len(NAMES) * window.num_samples, 1):
            monkeypatch.setattr(correlation, "_SCRATCH_BYTES", budget)
            blocked = _reduce_pairs(kind, window)
            for left, right in zip(default, blocked, strict=True):
                assert left.dtype == right.dtype
                assert np.array_equal(left, right)

    def test_peak_joint_is_the_naive_pair_max(self, rng):
        from repro.core import correlation

        # 32 VMs x 5000 samples: the first rows are split into column
        # blocks and later blocks batch several rows.
        names = tuple(f"vm{i:02d}" for i in range(32))
        window = _window(rng, names, samples=5000)
        assert 8 * len(names) * window.num_samples > correlation._SCRATCH_BYTES
        refs, pairs = CostMatrix.reference_parts(window, ReferenceSpec())
        data = window.matrix
        naive = np.array([[np.max(a + b) for b in data] for a in data])
        assert pairs.tobytes() == naive[np.triu_indices(len(names), 1)].tobytes()
        assert refs.tobytes() == data.max(axis=1).tobytes()


# ----------------------------------------------------------------------
# Horizon parts against a transcribed reference
# ----------------------------------------------------------------------
# ``_reference_parts`` transcribes ``CostMatrix.reference_parts`` as it
# stood when it returned the full N×N joint, each reduced block mirrored
# into the lower triangle; ``_reference_fold`` transcribes the peak
# horizon's element-wise-max fold of those parts.  A maximum or a
# percentile of the same pair sums is the same number whichever layout
# stores it, so parts and folded cost matrices must match bit for bit.
def _reference_parts(traces, spec):
    data = traces.matrix
    n = traces.num_traces
    refs = data.max(axis=1) if spec.is_peak else np.percentile(data, spec.percentile, axis=1)
    joint = np.empty((n, n), dtype=float)
    for r0, r1, c0, c1, sums in _pair_sum_blocks(data):
        block = joint[r0:r1, c0:c1]
        if spec.is_peak:
            sums.max(axis=2, out=block)
        else:
            block[...] = np.percentile(sums, spec.percentile, axis=2)
        joint[c0:c1, r0:r1] = block.T
    return refs.astype(float), joint


def _reference_fold(parts):
    refs, joint = parts[0]
    for other_refs, other_joint in parts[1:]:
        refs = np.maximum(refs, other_refs)
        joint = np.maximum(joint, other_joint)
    return refs, joint


def _reference_horizon(windows, periods):
    """The transcribed peak fold over the last ``periods`` windows, each
    window's parts laid out on the newest window's names; a VM missing
    from an older window is -inf there, the identity of the fold."""
    names = windows[-1].names
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    parts = []
    for window in windows[-periods:]:
        laid_refs = np.full(n, -np.inf)
        laid_joint = np.full((n, n), -np.inf)
        keep = [k for k, name in enumerate(window.names) if name in index]
        if keep:
            rows = np.array([index[window.names[k]] for k in keep], dtype=np.intp)
            subset = TraceSet.from_matrix(
                window.matrix[keep], [window.names[k] for k in keep], window.period_s
            )
            refs, joint = _reference_parts(subset, ReferenceSpec())
            laid_refs[rows] = refs
            laid_joint[np.ix_(rows, rows)] = joint
        parts.append((laid_refs, laid_joint))
    return _reference_fold(parts)


#: Scratch budgets: the default, one float32 row (half a float64 row) per
#: block, and a single pair per block (every row split into columns).
_SPLITS = ("default", "half-row", "one-pair")


def _split_scratch(monkeypatch, split, window):
    from repro.core import correlation

    budget = {"default": None, "half-row": 4 * window.num_traces * window.num_samples,
              "one-pair": 1}[split]
    if budget is not None:
        monkeypatch.setattr(correlation, "_SCRATCH_BYTES", budget)


def _refs_array(matrix):
    return np.array([matrix.reference(name) for name in matrix.names])


class TestHorizonPartsOracle:
    @pytest.mark.parametrize("split", _SPLITS)
    @pytest.mark.parametrize("num_vms", [1, 2, 10])
    @pytest.mark.parametrize("spec", [ReferenceSpec(), ReferenceSpec(90.0)], ids=["peak", "p90"])
    def test_reference_parts_match_transcription(self, spec, num_vms, split, rng, monkeypatch):
        window = _window(rng, NAMES[:num_vms])
        expected_refs, expected_joint = _reference_parts(window, spec)
        _split_scratch(monkeypatch, split, window)
        refs, pairs = CostMatrix.reference_parts(window, spec)
        assert refs.dtype == pairs.dtype == np.float64
        assert refs.tobytes() == expected_refs.tobytes()
        assert pairs.shape == (num_vms * (num_vms - 1) // 2,)
        assert pairs.tobytes() == expected_joint[np.triu_indices(num_vms, 1)].tobytes()

    @pytest.mark.parametrize("split", _SPLITS)
    @pytest.mark.parametrize("num_vms", [1, 2, 10])
    @pytest.mark.parametrize("spec", [ReferenceSpec(), ReferenceSpec(90.0)], ids=["peak", "p90"])
    def test_horizon_matches_transcribed_fold(self, spec, num_vms, split, rng, monkeypatch):
        windows = [_window(rng, NAMES[:num_vms]) for _ in range(5)]
        expected = []
        for period in range(len(windows)):
            recent = windows[max(0, period - 2) : period + 1]
            if spec.is_peak:
                refs, joint = _reference_fold([_reference_parts(w, spec) for w in recent])
            else:
                refs, joint = _reference_parts(_concat(recent), spec)
            expected.append((refs, _cost_matrix_from_parts(refs, joint)))
        _split_scratch(monkeypatch, split, windows[0])
        horizon = RollingCostHorizon(spec, horizon_periods=3)
        for window, (refs, costs) in zip(windows, expected, strict=True):
            matrix = horizon.push(window)
            assert matrix.as_array().tobytes() == costs.tobytes()
            assert _refs_array(matrix).tobytes() == refs.tobytes()

    @pytest.mark.parametrize("split", _SPLITS)
    def test_peak_membership_matches_horizon_rebuilt_from_windows(self, split, rng, monkeypatch):
        """Arrivals and departures, down to one VM and back, then a new
        population without a delta, against the transcribed fold over
        each window's own members."""
        steps = [
            ((), ()),
            ((), ()),
            (("g", "h"), ("b", "e")),
            ((), ("a",)),
            (("i",), ()),
            ((), ("c", "f", "g", "h", "i")),
            (("j", "k"), ()),
            (("l",), ("d", "j")),
            None,
        ]
        _split_scratch(monkeypatch, split, _window(rng, NAMES))
        names = ("a", "b", "c", "d", "e", "f")
        horizon = RollingCostHorizon(ReferenceSpec(), horizon_periods=3)
        windows = []
        for step in steps:
            if step is None:
                names = tuple(name.upper() for name in names)
            else:
                added, removed = step
                horizon.apply_membership(added=added, removed=removed)
                names = tuple(name for name in names if name not in removed) + added
            windows.append(_window(rng, names))
            matrix = horizon.push(windows[-1])
            refs, joint = _reference_horizon(windows, 3)
            costs = _cost_matrix_from_parts(refs, joint)
            assert matrix.names == names
            assert matrix.as_array().tobytes() == costs.tobytes()
            assert _refs_array(matrix).tobytes() == refs.tobytes()


class TestStreamingFoldWindow:
    def test_peak_fold_bit_exact_against_per_sample(self, rng):
        window = _window(rng, NAMES)
        stepped = StreamingCostMatrix(NAMES)
        stepped.extend(window.matrix.T)
        folded = StreamingCostMatrix(NAMES)
        folded.fold_window(window.matrix)
        assert folded.count == stepped.count
        assert np.array_equal(folded.as_array(), stepped.as_array())

    def test_percentile_fold_lockstep_with_per_sample(self, rng):
        spec = ReferenceSpec(90.0)
        window = _window(rng, NAMES, samples=40)
        stepped = StreamingCostMatrix(NAMES, spec)
        stepped.extend(window.matrix.T)
        folded = StreamingCostMatrix(NAMES, spec)
        folded.fold_window(window.matrix)
        assert np.array_equal(folded.as_array(), stepped.as_array())

    def test_to_cost_matrix_freezes_the_estimates(self, rng):
        window = _window(rng, NAMES)
        streaming = StreamingCostMatrix(NAMES)
        streaming.fold_window(window.matrix)
        frozen = streaming.to_cost_matrix()
        assert np.array_equal(frozen.as_array(), streaming.as_array())
        assert frozen.references() == streaming.references()
        before = frozen.references()
        streaming.fold_window(window.matrix * 3.0)
        assert frozen.references() == before  # the snapshot must not move

    def test_validation(self, rng):
        streaming = StreamingCostMatrix(NAMES)
        with pytest.raises(ValueError, match="window"):
            streaming.fold_window(np.zeros((3, 10)))
        with pytest.raises(ValueError, match="finite"):
            streaming.fold_window(np.full((len(NAMES), 4), -1.0))
        with pytest.raises(ValueError, match="no samples"):
            streaming.to_cost_matrix()


class TestApproachAndManagerThreading:
    def test_exact_mode_is_the_default_and_matches_explicit(self, rng):
        windows = [_window(rng, NAMES) for _ in range(4)]
        default = ProposedApproach(8, (2.0, 2.3), reference=ReferenceSpec(90.0))
        explicit = ProposedApproach(
            8, (2.0, 2.3), reference=ReferenceSpec(90.0), horizon_mode="exact"
        )
        for window in windows:
            left = default.decide(window)
            right = explicit.decide(window)
            assert dict(left.placement.assignment) == dict(right.placement.assignment)
            assert left.info == right.info

    def test_p2_mode_places_the_whole_population(self, rng):
        approach = ProposedApproach(
            8, (2.0, 2.3), reference=ReferenceSpec(90.0), horizon_mode="p2"
        )
        for _ in range(4):
            decision = approach.decide(_window(rng, NAMES))
            assert set(decision.placement.assignment) == set(NAMES)
        approach.reset()
        decision = approach.decide(_window(rng, NAMES))
        assert set(decision.placement.assignment) == set(NAMES)
        renamed = tuple(f"other{i}" for i in range(len(NAMES)))
        decision = approach.decide(_window(rng, renamed))
        assert set(decision.placement.assignment) == set(renamed)

    def test_invalid_horizon_mode_rejected(self):
        with pytest.raises(ValueError, match="exact.*p2"):
            ProposedApproach(8, (2.0, 2.3), horizon_mode="fast")

    def test_manager_multi_window_horizon_folds_like_tracker(self, rng):
        config = ManagerConfig(
            n_cores=8,
            freq_levels_ghz=(2.0, 2.3),
            reference=ReferenceSpec(90.0),
            horizon_periods=3,
        )
        manager = PowerManager(config)
        tracker = RollingCostHorizon(config.reference, 3, "exact")
        for _ in range(4):
            window = _window(rng, NAMES)
            decision = manager.decide(window)
            expected = tracker.push(window)
            assert np.array_equal(
                decision.cost_matrix.as_array(), expected.as_array()
            )

    def test_manager_default_is_single_window(self, rng):
        config = ManagerConfig(n_cores=8, freq_levels_ghz=(2.0, 2.3))
        manager = PowerManager(config)
        for _ in range(3):
            window = _window(rng, NAMES)
            decision = manager.decide(window)
            direct = CostMatrix.from_traces(window, config.reference)
            assert np.array_equal(decision.cost_matrix.as_array(), direct.as_array())

    def test_manager_config_validation(self):
        with pytest.raises(ValueError, match="horizon_periods"):
            ManagerConfig(n_cores=8, freq_levels_ghz=(2.0,), horizon_periods=0)
        with pytest.raises(ValueError, match="horizon_mode"):
            ManagerConfig(n_cores=8, freq_levels_ghz=(2.0,), horizon_mode="p3")
