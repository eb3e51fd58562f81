"""Incremental-membership contract: grow/shrink without rebuilds.

Covers the tentpole guarantees of the membership refactor:

* ``StreamingCostMatrix.add_vms()/remove_vms()`` edge cases —
  remove-then-re-add, shrink to N=1, add into an empty matrix, and
  percentile-mode P² seeding against the scalar oracle.
* ``BatchPSquare.remap_streams`` per-stream count semantics.
* Allocator/sharded/horizon delta invalidation scope (departures from a
  shard must not reset sibling shards).
* The bit-identity guarantee: a static population driven through
  ``admit()``-then-replay matches the batch path byte-for-byte for the
  exact and sharded allocators.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.stats import BatchPSquare, PSquarePercentile
from repro.core.correlation import (
    CostMatrix,
    NEUTRAL_COST,
    RollingCostHorizon,
    StreamingCostMatrix,
)
from repro.core.manager import ManagerConfig, PowerManager
from repro.core.sharding import ShardingConfig
from repro.traces.trace import ReferenceSpec, TraceSet

PERIOD_S = 300.0


def _window(rng, n, samples=24):
    return rng.random((n, samples))


class TestBatchPSquareRemap:
    def test_reorder_preserves_streams_exactly(self):
        rng = np.random.default_rng(0)
        batch = BatchPSquare(90.0, 3)
        scalars = [PSquarePercentile(90.0) for _ in range(3)]
        for _ in range(40):
            row = rng.random(3)
            batch.update(row)
            for scalar, value in zip(scalars, row, strict=True):
                scalar.update(value)
        batch.remap_streams([2, 0, 1])
        expected = [scalars[2].value, scalars[0].value, scalars[1].value]
        assert np.array_equal(batch.values, np.asarray(expected))

    def test_fresh_stream_warms_up_like_scalar(self):
        rng = np.random.default_rng(1)
        batch = BatchPSquare(90.0, 2)
        scalars = [PSquarePercentile(90.0) for _ in range(3)]
        for _ in range(20):
            row = rng.random(2)
            batch.update(row)
            scalars[0].update(row[0])
            scalars[1].update(row[1])
        batch.remap_streams([0, 1, -1])
        assert batch.stream_counts().tolist() == [20, 20, 0]
        assert batch.count == 0
        for _ in range(30):
            row = rng.random(3)
            batch.update(row)
            for scalar, value in zip(scalars, row, strict=True):
                scalar.update(value)
        assert np.array_equal(
            batch.values, np.asarray([scalar.value for scalar in scalars])
        )

    def test_heterogeneous_snapshot_round_trips_byte_identically(self):
        rng = np.random.default_rng(2)
        batch = BatchPSquare(75.0, 2)
        for _ in range(12):
            batch.update(rng.random(2))
        batch.remap_streams([0, 1, -1])
        batch.update(rng.random(3))
        state = batch.snapshot()
        twin = BatchPSquare(75.0, 3)
        twin.restore(state)
        assert pickle.dumps(twin.snapshot()) == pickle.dumps(state)
        row = rng.random(3)
        batch.update(row)
        twin.update(row)
        assert pickle.dumps(twin.snapshot()) == pickle.dumps(batch.snapshot())

    def test_uniform_snapshot_layout_unchanged(self):
        batch = BatchPSquare(50.0, 2)
        batch.update([0.1, 0.2])
        assert "counts" not in batch.snapshot()

    def test_marker_state_requires_uniform_counts(self):
        batch = BatchPSquare(50.0, 1)
        batch.update([0.5])
        batch.remap_streams([0, -1])
        with pytest.raises(ValueError, match="uniform per-stream counts"):
            batch.marker_state()

    def test_values_nan_before_first_sample_of_fresh_stream(self):
        batch = BatchPSquare(50.0, 1)
        batch.update([1.0])
        batch.remap_streams([0, -1])
        values = batch.values
        assert values[0] == 1.0
        assert np.isnan(values[1])

    def test_invalid_mappings_rejected(self):
        batch = BatchPSquare(50.0, 2)
        with pytest.raises(ValueError, match="at least one stream"):
            batch.remap_streams([])
        with pytest.raises(ValueError, match="valid stream indices"):
            batch.remap_streams([0, 5])
        with pytest.raises(ValueError, match="valid stream indices"):
            batch.remap_streams([-2])


class TestStreamingMatrixMembership:
    def test_peak_grow_shrink_matches_presence_oracle(self):
        rng = np.random.default_rng(3)
        matrix = StreamingCostMatrix(("a", "b", "c", "d"))
        w1 = _window(rng, 4)
        matrix.fold_window(w1)
        matrix.remove_vms(["b"])
        matrix.add_vms(["e"])
        w2 = _window(rng, 4)
        matrix.fold_window(w2)
        refs = matrix.references()
        assert refs["a"] == max(w1[0].max(), w2[0].max())
        assert refs["c"] == max(w1[2].max(), w2[1].max())
        assert refs["e"] == w2[3].max()
        # Pair a-c spans both windows; pair a-e only the post-arrival one.
        joint_ac = max((w1[0] + w1[2]).max(), (w2[0] + w2[1]).max())
        joint_ae = (w2[0] + w2[3]).max()
        arr = matrix.as_array()
        i, j, k = matrix.index_of("a"), matrix.index_of("c"), matrix.index_of("e")
        assert arr[i, j] == (refs["a"] + refs["c"]) / joint_ac
        assert arr[i, k] == (refs["a"] + refs["e"]) / joint_ae

    def test_remove_then_re_add_same_id_starts_fresh(self):
        rng = np.random.default_rng(4)
        matrix = StreamingCostMatrix(("a", "b"))
        matrix.fold_window(np.full((2, 6), 0.9))
        matrix.remove_vms(["a"])
        matrix.add_vms(["a"])
        window = rng.random((2, 6)) * 0.5
        matrix.fold_window(window)
        # b kept its old 0.9 peak; the re-added a must not.
        assert matrix.references()["a"] == window[matrix.index_of("a")].max()
        assert matrix.references()["b"] == 0.9

    def test_shrink_to_single_vm(self):
        matrix = StreamingCostMatrix(("x", "y"))
        matrix.fold_window(np.random.default_rng(5).random((2, 6)))
        matrix.remove_vms(["y"])
        assert matrix.names == ("x",)
        assert matrix.as_array().tolist() == [[NEUTRAL_COST]]

    def test_add_into_empty_matrix(self):
        matrix = StreamingCostMatrix(())
        assert matrix.as_array().shape == (0, 0)
        matrix.add_vms(["p", "q"])
        window = np.random.default_rng(6).random((2, 8))
        matrix.fold_window(window)
        assert matrix.references()["p"] == window[0].max()
        assert matrix.cost("p", "q") == (
            window[0].max() + window[1].max()
        ) / (window[0] + window[1]).max()

    def test_empty_percentile_matrix_grows(self):
        spec = ReferenceSpec(percentile=90.0)
        matrix = StreamingCostMatrix((), spec)
        matrix.add_vms(["p"])
        matrix.fold_window(np.random.default_rng(7).random((1, 10)))
        assert matrix.as_array().tolist() == [[NEUTRAL_COST]]

    def test_percentile_seeding_matches_scalar_oracle(self):
        """New pairs seed fresh P² marker states: exactly the estimate a
        scalar P² fed only the post-arrival samples produces."""
        rng = np.random.default_rng(8)
        spec = ReferenceSpec(percentile=90.0)
        matrix = StreamingCostMatrix(("a", "b"), spec)
        before = _window(rng, 2, 30)
        matrix.fold_window(before)
        matrix.add_vms(["c"])
        after = _window(rng, 3, 30)
        matrix.fold_window(after)

        surviving_single = PSquarePercentile(90.0)
        for value in np.concatenate([before[0], after[0]]):
            surviving_single.update(value)
        fresh_single = PSquarePercentile(90.0)
        for value in after[2]:
            fresh_single.update(value)
        fresh_pair = PSquarePercentile(90.0)
        for value in after[0] + after[2]:
            fresh_pair.update(value)
        surviving_pair = PSquarePercentile(90.0)
        for value in np.concatenate([before[0] + before[1], after[0] + after[1]]):
            surviving_pair.update(value)

        assert matrix.reference("a") == surviving_single.value
        assert matrix.reference("c") == fresh_single.value
        assert matrix.cost("a", "c") == (
            surviving_single.value + fresh_single.value
        ) / fresh_pair.value
        # The surviving pair stream is untouched by the arrival.
        assert matrix.cost("a", "b") == (
            surviving_single.value + matrix.reference("b")
        ) / surviving_pair.value

    def test_duplicate_and_unknown_deltas_rejected(self):
        matrix = StreamingCostMatrix(("a", "b"))
        with pytest.raises(ValueError, match="already in the cost matrix"):
            matrix.add_vms(["a"])
        with pytest.raises(ValueError, match="unique"):
            matrix.add_vms(["c", "c"])
        with pytest.raises(KeyError, match="no VMs named"):
            matrix.remove_vms(["ghost"])

    def test_membership_snapshot_round_trip(self):
        rng = np.random.default_rng(9)
        spec = ReferenceSpec(percentile=90.0)
        matrix = StreamingCostMatrix(("a", "b"), spec)
        matrix.fold_window(_window(rng, 2))
        matrix.add_vms(["c"])
        matrix.fold_window(_window(rng, 3))
        state = matrix.snapshot()
        twin = StreamingCostMatrix(matrix.names, spec)
        twin.restore(state)
        assert pickle.dumps(twin.snapshot()) == pickle.dumps(state)
        assert np.array_equal(twin.as_array(), matrix.as_array())


class TestHorizonMembership:
    def test_peak_fold_across_delta_is_exact(self):
        rng = np.random.default_rng(10)
        spec = ReferenceSpec()
        horizon = RollingCostHorizon(spec, horizon_periods=3)
        names = ("a", "b", "c")
        windows = [_window(rng, 3, 12) for _ in range(2)]
        for window in windows:
            horizon.push(TraceSet.from_matrix(window.copy(), names, PERIOD_S))
        horizon.apply_membership(added=("d",), removed=("b",))
        incoming = _window(rng, 3, 12)
        matrix = horizon.push(
            TraceSet.from_matrix(incoming.copy(), ("a", "c", "d"), PERIOD_S)
        )
        refs_a = max(windows[0][0].max(), windows[1][0].max(), incoming[0].max())
        refs_d = incoming[2].max()
        joint_ad = (incoming[0] + incoming[2]).max()
        assert matrix.reference("a") == refs_a
        assert matrix.reference("d") == refs_d
        assert matrix.cost("a", "d") == (refs_a + refs_d) / joint_ad

    @pytest.mark.parametrize("mode", ["exact", "p2"])
    def test_percentile_removal_is_bit_identical_to_subset_feed(self, mode):
        rng = np.random.default_rng(11)
        spec = ReferenceSpec(percentile=90.0)
        names = ("a", "b", "c")
        windows = [_window(rng, 3, 12) for _ in range(2)]
        tail = _window(rng, 2, 12)

        live = RollingCostHorizon(spec, horizon_periods=3, mode=mode)
        for window in windows:
            live.push(TraceSet.from_matrix(window.copy(), names, PERIOD_S))
        live.apply_membership(removed=("b",))
        got = live.push(TraceSet.from_matrix(tail.copy(), ("a", "c"), PERIOD_S))

        oracle = RollingCostHorizon(spec, horizon_periods=3, mode=mode)
        for window in windows:
            oracle.push(
                TraceSet.from_matrix(window[[0, 2]].copy(), ("a", "c"), PERIOD_S)
            )
        want = oracle.push(TraceSet.from_matrix(tail.copy(), ("a", "c"), PERIOD_S))
        assert np.array_equal(got.as_array(), want.as_array())

    def test_restore_normalizes_dtypes(self):
        """A snapshot that crossed a dtype-narrowing serializer restores
        to float64 parts (the PR-8 sharded-restore sibling)."""
        rng = np.random.default_rng(12)
        horizon = RollingCostHorizon(ReferenceSpec(), horizon_periods=2)
        horizon.push(
            TraceSet.from_matrix(_window(rng, 2, 8), ("a", "b"), PERIOD_S)
        )
        state = horizon.snapshot()
        mangled = dict(state)
        mangled["parts"] = [
            (refs.astype(np.float32), joint.astype(np.float32))
            for refs, joint in state["parts"]
        ]
        twin = RollingCostHorizon(ReferenceSpec(), horizon_periods=2)
        twin.restore(mangled)
        resnap = twin.snapshot()
        assert all(
            refs.dtype == np.float64 and joint.dtype == np.float64
            for refs, joint in resnap["parts"]
        )
        # An unmangled snapshot restores byte-identically.
        clean = RollingCostHorizon(ReferenceSpec(), horizon_periods=2)
        clean.restore(state)
        assert pickle.dumps(clean.snapshot()) == pickle.dumps(state)


class TestAllocatorDeltas:
    def _manager(self, allocator="exact", **overrides):
        config = ManagerConfig(
            n_cores=8,
            freq_levels_ghz=(1.2, 1.8, 2.4),
            allocator=allocator,
            sharding=ShardingConfig(target_shard_vms=15)
            if allocator == "sharded"
            else None,
            **overrides,
        )
        return PowerManager(config)

    def test_exact_cache_survives_arrival_drops_on_departure(self):
        rng = np.random.default_rng(13)
        manager = self._manager()
        names = tuple(f"v{i}" for i in range(10))
        manager.decide(TraceSet.from_matrix(_window(rng, 10), names, PERIOD_S))
        assert manager._allocator._allocator._reindex_cache is not None
        manager.admit(["new"])
        assert manager._allocator._allocator._reindex_cache is not None
        manager.retire("v3")
        assert manager._allocator._allocator._reindex_cache is None

    def test_departure_does_not_reset_sibling_shards(self):
        rng = np.random.default_rng(14)
        manager = self._manager("sharded")
        names = [f"vm{i:03d}" for i in range(60)]
        for _ in range(2):
            manager.decide(
                TraceSet.from_matrix(_window(rng, 60), tuple(names), PERIOD_S)
            )
        sharded = manager._allocator
        victim = names[7]
        victim_shard = sorted(sharded._plan.shards_of([victim]))[0]
        assert all(
            sharded._allocators[shard]._reindex_cache is not None
            for shard in sharded._allocators
        )
        manager.retire(victim)
        assert sharded._allocators[victim_shard]._reindex_cache is None
        siblings = [s for s in sharded._allocators if s != victim_shard]
        assert siblings
        assert all(
            sharded._allocators[shard]._reindex_cache is not None for shard in siblings
        )
        # The next allocate recognises the delta: no wholesale reset.
        names.remove(victim)
        manager.decide(
            TraceSet.from_matrix(_window(rng, 59), tuple(names), PERIOD_S)
        )

    def test_retire_before_any_decide_is_safe(self):
        manager = self._manager("sharded")
        manager.admit(["a", "b"])
        manager.retire("a")
        assert manager.members == ("b",)

    def test_admit_retire_validation(self):
        rng = np.random.default_rng(15)
        manager = self._manager()
        names = tuple(f"v{i}" for i in range(4))
        manager.decide(TraceSet.from_matrix(_window(rng, 4), names, PERIOD_S))
        with pytest.raises(ValueError, match="already admitted"):
            manager.admit("v0")
        with pytest.raises(KeyError, match="never admitted"):
            manager.retire("ghost")


class TestStaticBitIdentity:
    """The acceptance gate: admit()-then-replay == batch path, byte-for-byte."""

    def _run(self, allocator, via_admit, spec=None):
        rng = np.random.default_rng(16)
        names = tuple(f"vm{i:03d}" for i in range(40))
        windows = [rng.random((40, 24)) for _ in range(4)]
        config = ManagerConfig(
            n_cores=8,
            freq_levels_ghz=(1.2, 1.8, 2.4),
            reference=spec or ReferenceSpec(),
            allocator=allocator,
            sharding=ShardingConfig(target_shard_vms=16)
            if allocator == "sharded"
            else None,
            horizon_periods=3 if allocator == "exact" else 1,
        )
        manager = PowerManager(config)
        if via_admit:
            manager.admit(names)
        decisions = []
        for window in windows:
            decision = manager.decide(
                TraceSet.from_matrix(window.copy(), names, PERIOD_S)
            )
            decisions.append(
                (
                    sorted(decision.placement.assignment.items()),
                    sorted(
                        (server, setting.freq_ghz)
                        for server, setting in decision.frequencies.items()
                    ),
                    sorted(decision.predicted_references.items()),
                    decision.estimated_servers,
                )
            )
        return decisions, manager.snapshot()

    @pytest.mark.parametrize("allocator", ["exact", "sharded"])
    def test_admit_then_replay_bit_identical(self, allocator):
        batch_decisions, batch_state = self._run(allocator, via_admit=False)
        admit_decisions, admit_state = self._run(allocator, via_admit=True)
        assert admit_decisions == batch_decisions
        for key in ("refs", "allocator"):
            assert pickle.dumps(admit_state[key]) == pickle.dumps(batch_state[key])
        # The members registry is the only membership-path addition.
        assert "members" not in batch_state
        assert admit_state["members"] == [f"vm{i:03d}" for i in range(40)]

    def test_admit_then_replay_percentile_horizon(self):
        spec = ReferenceSpec(percentile=90.0)
        batch_decisions, batch_state = self._run("exact", False, spec)
        admit_decisions, admit_state = self._run("exact", True, spec)
        assert admit_decisions == batch_decisions
        for key in ("refs", "allocator"):
            assert pickle.dumps(admit_state[key]) == pickle.dumps(batch_state[key])
