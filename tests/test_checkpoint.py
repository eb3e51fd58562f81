"""Tests for the crash-safe checkpoint/restore subsystem.

Covers the v1 file format (round-trip, corruption detection), the
per-component snapshot/restore contracts, byte-identical mid-replay
resume (kill at *every* checkpoint boundary, with and without fault
injection, plus a real SIGKILL'd subprocess), and the runtime invariant
auditor's three failure modes.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.stats import BatchPSquare, validate_p2_markers
from repro.core.sharding import ShardedAllocator, ShardingConfig
from repro.core.correlation import RollingCostHorizon, StreamingCostMatrix
from repro.core.manager import ManagerConfig, PowerManager
from repro.infrastructure.server import XEON_E5410
from repro.sim import audit
from repro.sim.approaches import BfdApproach, PcpApproach, ProposedApproach
from repro.sim.checkpoint import (
    CHECKPOINT_LAYOUT,
    CheckpointError,
    CheckpointPolicy,
    checkpoint_file,
    list_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from repro.sim.churn import ChurnEngine, synthesize_churn_events
from repro.sim.engine import ReplayConfig, replay
from repro.sim.faults import FaultConfig
from repro.sim.metrics import FrequencyResidency
from repro.traces.trace import ReferenceSpec, TraceSet, UtilizationTrace

SPEC = XEON_E5410


def _traces(seed: int = 0, num_vms: int = 6, periods: int = 5, spp: int = 60) -> TraceSet:
    rng = np.random.default_rng(seed)
    n = periods * spp
    return TraceSet(
        UtilizationTrace(rng.uniform(0.2, 3.5, n), 5.0, f"vm{i}") for i in range(num_vms)
    )


def _bfd():
    return BfdApproach(SPEC.n_cores, SPEC.freq_levels_ghz, max_servers=6, default_reference=4.0)


def _proposed(**overrides):
    params = dict(max_servers=6, default_reference=4.0)
    params.update(overrides)
    return ProposedApproach(SPEC.n_cores, SPEC.freq_levels_ghz, **params)


def _pcp():
    return PcpApproach(SPEC.n_cores, SPEC.freq_levels_ghz, max_servers=6, default_reference=4.0)


class _JitterApproach:
    """A stochastic approach with no ``snapshot()``/``restore()``.

    Exercises the engine's universal pickle-the-object fallback: the
    checkpoint must carry the live RNG bit-generator state, which this
    class makes observable by stamping each period's draw into the
    decision info (and thus into ``ReplayResult.info_per_period``).
    Module-level so the fallback payload pickles.
    """

    name = "JitterBFD"

    def __init__(self) -> None:
        self._inner = _bfd()
        self._rng = np.random.default_rng(42)

    def decide(self, window):
        from repro.sim.approaches import ApproachDecision

        decision = self._inner.decide(window)
        return ApproachDecision(
            placement=decision.placement,
            frequencies=decision.frequencies,
            predicted_references=decision.predicted_references,
            info={**decision.info, "jitter": float(self._rng.random())},
        )

    def reset(self) -> None:
        self._inner.reset()
        self._rng = np.random.default_rng(42)


_FAULTS = FaultConfig(
    seed=7,
    crash_rate=0.2,
    mean_downtime_periods=1.0,
    degraded_rate=0.1,
    degraded_capacity_factor=0.5,
)


# ----------------------------------------------------------------------
# CheckpointPolicy / config validation (satellite 3)
# ----------------------------------------------------------------------
class TestCheckpointPolicyValidation:
    def test_defaults_are_valid(self, tmp_path):
        policy = CheckpointPolicy(path=tmp_path)
        assert policy.every_periods == 10
        assert policy.keep == 2
        assert policy.audit is True
        assert isinstance(policy.path, Path)

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError, match="path"):
            CheckpointPolicy(path="")

    @pytest.mark.parametrize("bad", [0, -1, 1.5, float("nan"), float("inf"), "soon"])
    def test_rejects_bad_every_periods(self, tmp_path, bad):
        with pytest.raises(ValueError, match="every_periods"):
            CheckpointPolicy(path=tmp_path, every_periods=bad)

    @pytest.mark.parametrize("bad", [0, -2, float("nan"), 2.5])
    def test_rejects_bad_keep(self, tmp_path, bad):
        with pytest.raises(ValueError, match="keep"):
            CheckpointPolicy(path=tmp_path, keep=bad)

    def test_rejects_unknown_on_violation(self, tmp_path):
        with pytest.raises(ValueError, match="on_violation"):
            CheckpointPolicy(path=tmp_path, on_violation="explode")

    def test_accepts_integral_float(self, tmp_path):
        assert CheckpointPolicy(path=tmp_path, every_periods=5.0).every_periods == 5


class TestReplayConfigValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tperiod(self, bad):
        with pytest.raises(ValueError, match="tperiod_s"):
            ReplayConfig(tperiod_s=bad)

    @pytest.mark.parametrize("bad", [0, -3, float("nan")])
    def test_rejects_bad_dvfs_interval(self, bad):
        with pytest.raises(ValueError, match="dvfs_interval_samples"):
            ReplayConfig(dvfs_interval_samples=bad)

    @pytest.mark.parametrize("bad", [0.5, float("nan")])
    def test_rejects_bad_dvfs_headroom(self, bad):
        with pytest.raises(ValueError, match="dvfs_headroom"):
            ReplayConfig(dvfs_headroom=bad)


class TestManagerConfigValidation:
    def _config(self, **overrides):
        params = dict(n_cores=8, freq_levels_ghz=(2.0, 2.3))
        params.update(overrides)
        return ManagerConfig(**params)

    @pytest.mark.parametrize("bad", [0, -1, float("nan")])
    def test_rejects_bad_n_cores(self, bad):
        with pytest.raises(ValueError, match="n_cores"):
            self._config(n_cores=bad)

    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_rejects_bad_default_reference(self, bad):
        with pytest.raises(ValueError, match="default_reference"):
            self._config(default_reference=bad)

    @pytest.mark.parametrize("bad", [0, float("nan")])
    def test_rejects_bad_horizon_periods(self, bad):
        with pytest.raises(ValueError, match="horizon_periods"):
            self._config(horizon_periods=bad)


# ----------------------------------------------------------------------
# File format: round-trip + corruption detection
# ----------------------------------------------------------------------
class TestCheckpointFileFormat:
    def _save(self, tmp_path, period=4):
        meta = {"next_period": period + 1, "fingerprint": "abc"}
        sections = {"engine": b"\x01" * 100, "approach": b"state-bytes"}
        path = save_checkpoint(checkpoint_file(tmp_path, period), meta, sections)
        return path, meta, sections

    def test_round_trip(self, tmp_path):
        path, meta, sections = self._save(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.meta == meta
        assert {k: bytes(v) for k, v in loaded.sections.items()} == sections

    def test_no_tmp_file_left_behind(self, tmp_path):
        path, _, _ = self._save(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_bad_magic(self, tmp_path):
        bogus = tmp_path / "period_000001.ckpt"
        bogus.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bogus)

    def test_flipped_byte_in_section(self, tmp_path):
        path, _, _ = self._save(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # inside the last section's payload
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path, _, _ = self._save(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path, _, _ = self._save(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_wrong_layout_version(self, tmp_path):
        # Craft a structurally valid file stamped with a future layout:
        # the header CRC is recomputed so only the version check can trip.
        import json
        import struct
        import zlib

        header = json.dumps({"layout": "v999", "meta": {}, "sections": []}).encode()
        path = tmp_path / "period_000001.ckpt"
        path.write_bytes(
            b"RPCKPT01"
            + struct.pack(">I", len(header))
            + header
            + struct.pack(">I", zlib.crc32(header))
        )
        with pytest.raises(CheckpointError, match="v999"):
            load_checkpoint(path)

    def test_header_crc_mismatch(self, tmp_path):
        path, _, _ = self._save(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[12] ^= 0x01  # inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_list_and_prune(self, tmp_path):
        for period in (2, 8, 4):
            save_checkpoint(checkpoint_file(tmp_path, period), {"p": period}, {})
        (tmp_path / "notes.txt").write_text("ignored")
        listed = list_checkpoints(tmp_path)
        assert [p.name for p in listed] == [
            "period_000008.ckpt",
            "period_000004.ckpt",
            "period_000002.ckpt",
        ]
        prune_checkpoints(tmp_path, keep=2)
        assert [p.name for p in list_checkpoints(tmp_path)] == [
            "period_000008.ckpt",
            "period_000004.ckpt",
        ]

    def test_load_latest_skips_corrupt_newest(self, tmp_path):
        save_checkpoint(checkpoint_file(tmp_path, 2), {"p": 2}, {"s": b"ok"})
        newest, _, _ = self._save(tmp_path, period=4)
        blob = bytearray(newest.read_bytes())
        blob[-1] ^= 0xFF
        newest.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="skipping unusable checkpoint"):
            found = load_latest_checkpoint(tmp_path)
        assert found is not None
        path, ckpt = found
        assert path.name == "period_000002.ckpt"
        assert ckpt.meta == {"p": 2}

    def test_load_latest_empty_dir(self, tmp_path):
        assert load_latest_checkpoint(tmp_path) is None

    def test_layout_constant(self, tmp_path):
        path, _, _ = self._save(tmp_path)
        assert CHECKPOINT_LAYOUT == "v1"
        # The version stamp rides in the header, not the meta.
        assert "layout" not in load_checkpoint(path).meta


# ----------------------------------------------------------------------
# Component snapshot/restore round-trips
# ----------------------------------------------------------------------
class TestComponentRoundTrips:
    @pytest.mark.parametrize("spec", [ReferenceSpec(), ReferenceSpec(95.0)])
    def test_streaming_cost_matrix(self, spec):
        rng = np.random.default_rng(11)
        names = tuple(f"vm{i}" for i in range(5))
        live = StreamingCostMatrix(names, spec)
        for _ in range(40):
            live.update(rng.uniform(0.0, 4.0, 5))
        state = pickle.loads(pickle.dumps(live.snapshot()))
        twin = StreamingCostMatrix(names, spec)
        twin.restore(state)
        tail = rng.uniform(0.0, 4.0, (25, 5))
        for row in tail:
            live.update(row)
            twin.update(row)
        assert live.count == twin.count
        np.testing.assert_array_equal(live.as_array(), twin.as_array())

    def test_streaming_matrix_rejects_foreign_snapshot(self):
        a = StreamingCostMatrix(("x", "y"))
        b = StreamingCostMatrix(("x", "z"))
        with pytest.raises(ValueError, match="different VM set"):
            b.restore(a.snapshot())

    @pytest.mark.parametrize(
        ("spec", "mode"),
        [
            (ReferenceSpec(), "exact"),
            (ReferenceSpec(90.0), "exact"),
            (ReferenceSpec(90.0), "p2"),
        ],
    )
    def test_rolling_horizon(self, spec, mode):
        def window(seed):
            rng = np.random.default_rng(seed)
            return TraceSet(
                UtilizationTrace(rng.uniform(0.1, 3.0, 30), 5.0, f"vm{i}") for i in range(4)
            )

        live = RollingCostHorizon(spec, horizon_periods=3, mode=mode)
        for seed in range(4):
            live.push(window(seed))
        state = pickle.loads(pickle.dumps(live.snapshot()))
        twin = RollingCostHorizon(spec, horizon_periods=3, mode=mode)
        twin.restore(state)
        for seed in range(4, 7):
            a = live.push(window(seed))
            b = twin.push(window(seed))
            np.testing.assert_array_equal(a.as_array(), b.as_array())

    def test_rolling_horizon_rejects_foreign_snapshot(self):
        a = RollingCostHorizon(ReferenceSpec(), horizon_periods=3)
        b = RollingCostHorizon(ReferenceSpec(), horizon_periods=5)
        with pytest.raises(ValueError, match="different"):
            b.restore(a.snapshot())

    @pytest.mark.parametrize(
        ("spec", "mode", "key"),
        [(ReferenceSpec(), "exact", "parts"), (ReferenceSpec(90.0), "p2", "marker_parts")],
        ids=["peak", "p2"],
    )
    def test_rolling_horizon_rejects_parts_short_of_its_names(self, spec, mode, key):
        def window(num_vms, seed):
            rng = np.random.default_rng(seed)
            return TraceSet(
                UtilizationTrace(rng.uniform(0.1, 3.0, 30), 5.0, f"vm{i}")
                for i in range(num_vms)
            )

        live = RollingCostHorizon(spec, horizon_periods=3, mode=mode)
        short = RollingCostHorizon(spec, horizon_periods=3, mode=mode)
        for seed in range(2):
            live.push(window(4, seed))
            short.push(window(3, seed))
        state = {**live.snapshot(), key: short.snapshot()[key]}
        twin = RollingCostHorizon(spec, horizon_periods=3, mode=mode)
        untouched = pickle.dumps(twin.snapshot())
        with pytest.raises(ValueError, match="do not match"):
            twin.restore(state)
        assert pickle.dumps(twin.snapshot()) == untouched

    def test_power_manager(self):
        config = ManagerConfig(
            n_cores=8,
            freq_levels_ghz=(2.0, 2.3),
            default_reference=4.0,
            max_servers=6,
            horizon_periods=2,
        )

        def window(seed):
            rng = np.random.default_rng(100 + seed)
            return TraceSet(
                UtilizationTrace(rng.uniform(0.2, 3.5, 30), 5.0, f"vm{i}") for i in range(5)
            )

        live = PowerManager(config)
        for seed in range(3):
            live.decide(window(seed))
        state = pickle.loads(pickle.dumps(live.snapshot()))
        twin = PowerManager(config)
        twin.restore(state)
        assert live.history == twin.history
        for seed in range(3, 6):
            a = live.decide(window(seed))
            b = twin.decide(window(seed))
            assert a.placement.assignment == b.placement.assignment
            assert a.frequencies == b.frequencies

    def _sharded_window(self, seed: int, num_vms: int = 24) -> TraceSet:
        rng = np.random.default_rng(200 + seed)
        return TraceSet(
            UtilizationTrace(rng.uniform(0.2, 3.5, 30), 5.0, f"vm{i:03d}")
            for i in range(num_vms)
        )

    def test_sharded_allocator(self, tmp_path):
        """Snapshot → checkpoint file → restore is byte-stable and live.

        The restored twin's re-snapshot must pickle to the *same bytes*
        (the crash-recovery invariant every component honours), and its
        continued allocate/evacuate behaviour must match the live one.
        """
        sharding = ShardingConfig(num_shards=3)
        window = self._sharded_window(0)
        references = {vm: 2.5 for vm in window.names}

        live = ShardedAllocator(sharding=sharding)
        live.allocate(window, references, SPEC.n_cores)
        blob = pickle.dumps(live.snapshot())

        path = save_checkpoint(
            checkpoint_file(tmp_path, 1), {"next_period": 2}, {"allocator": blob}
        )
        loaded = load_checkpoint(path)
        twin = ShardedAllocator(sharding=sharding)
        twin.restore(pickle.loads(bytes(loaded.sections["allocator"])))
        assert pickle.dumps(twin.snapshot()) == blob

        tail = self._sharded_window(1)
        a = live.allocate(tail, references, SPEC.n_cores)
        b = twin.allocate(tail, references, SPEC.n_cores)
        assert dict(a.assignment) == dict(b.assignment)
        assert a.num_servers == b.num_servers

        failed = (a.assignment[sorted(a.assignment)[0]],)
        ea = live.evacuate(a, failed, references, SPEC.n_cores)
        eb = twin.evacuate(b, failed, references, SPEC.n_cores)
        assert dict(ea.assignment) == dict(eb.assignment)

    def test_sharded_proposed_approach(self):
        approach = _proposed(
            allocator="sharded", sharding=ShardingConfig(num_shards=2), horizon_periods=1
        )
        for seed in range(2):
            approach.decide(self._sharded_window(seed, num_vms=12))
        state = pickle.loads(pickle.dumps(approach.snapshot()))
        twin = _proposed(
            allocator="sharded", sharding=ShardingConfig(num_shards=2), horizon_periods=1
        )
        twin.restore(state)
        for seed in range(2, 4):
            window = self._sharded_window(seed, num_vms=12)
            a = approach.decide(window)
            b = twin.decide(window)
            assert dict(a.placement.assignment) == dict(b.placement.assignment)
            assert a.frequencies == b.frequencies

    def test_batch_psquare(self):
        rng = np.random.default_rng(5)
        live = BatchPSquare(90.0, 3)
        for _ in range(60):
            live.update(rng.uniform(0.0, 1.0, 3))
        twin = BatchPSquare(90.0, 3)
        twin.restore(pickle.loads(pickle.dumps(live.snapshot())))
        tail = rng.uniform(0.0, 1.0, (30, 3))
        for row in tail:
            live.update(row)
            twin.update(row)
        np.testing.assert_array_equal(live.values, twin.values)

    def test_residency_restore_validation(self):
        res = FrequencyResidency(2, (2.0, 2.3))
        res.record(0, 2.0, 10, active=True)
        state = res.snapshot()

        other_levels = FrequencyResidency(2, (1.8, 2.0))
        with pytest.raises(ValueError, match="level"):
            other_levels.restore(state)

        other_fleet = FrequencyResidency(3, (2.0, 2.3))
        with pytest.raises(ValueError, match="fleet size"):
            other_fleet.restore(state)

        negative = dict(state)
        counts = np.array(state["counts"], dtype=np.int64, copy=True)
        counts[0, 0] = -1
        negative["counts"] = counts
        fresh = FrequencyResidency(2, (2.0, 2.3))
        with pytest.raises(ValueError, match="negative"):
            fresh.restore(negative)

    def test_validate_p2_markers_rejects_disorder(self):
        est = BatchPSquare(90.0, 2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            est.update(rng.uniform(0.0, 1.0, 2))
        state = est.snapshot()
        validate_p2_markers(state["heights"], state["positions"], state["count"])
        bad_heights = np.array(state["heights"], copy=True)
        bad_heights[0, [0, -1]] = bad_heights[0, [-1, 0]]
        with pytest.raises(ValueError, match="sorted"):
            validate_p2_markers(bad_heights, state["positions"], state["count"])


# ----------------------------------------------------------------------
# Byte-identical mid-replay resume
# ----------------------------------------------------------------------
def _checkpointed_config(tmp_path, *, every=1, faults=None, keep=100, **overrides):
    return ReplayConfig(
        tperiod_s=300.0,
        faults=faults,
        checkpoint=CheckpointPolicy(path=tmp_path, every_periods=every, keep=keep),
        **overrides,
    )


class TestReplayResume:
    @pytest.mark.parametrize(
        ("factory", "faults"),
        [
            (_bfd, None),
            (_bfd, _FAULTS),
            (_proposed, None),
            (_proposed, _FAULTS),
            (_pcp, None),
        ],
        ids=["bfd", "bfd-faults", "proposed", "proposed-faults", "pcp"],
    )
    def test_resume_from_every_boundary_is_byte_identical(self, tmp_path, factory, faults):
        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0, faults=faults)
        reference = pickle.dumps(replay(traces, SPEC, 6, factory(), plain))

        config = _checkpointed_config(tmp_path, faults=faults)
        checkpointed = replay(traces, SPEC, 6, factory(), config)
        assert pickle.dumps(checkpointed) == reference

        files = list_checkpoints(tmp_path)
        assert files, "checkpointed replay wrote no files"
        for file in files:
            resumed = replay(traces, SPEC, 6, factory(), plain, resume_from=file)
            assert pickle.dumps(resumed) == reference, f"divergence resuming from {file.name}"

    def test_resume_from_directory_uses_newest(self, tmp_path):
        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0)
        reference = pickle.dumps(replay(traces, SPEC, 6, _bfd(), plain))
        replay(traces, SPEC, 6, _bfd(), _checkpointed_config(tmp_path))
        resumed = replay(traces, SPEC, 6, _bfd(), plain, resume_from=tmp_path)
        assert pickle.dumps(resumed) == reference

    def test_p2_percentile_dynamic_dvfs_round_trip(self, tmp_path):
        traces = _traces(num_vms=5)
        plain = ReplayConfig(tperiod_s=300.0, dvfs_mode="dynamic", dvfs_interval_samples=15)
        factory = lambda: _proposed(  # noqa: E731
            reference=ReferenceSpec(90.0), horizon_periods=2, horizon_mode="p2"
        )
        reference = pickle.dumps(replay(traces, SPEC, 6, factory(), plain))
        config = _checkpointed_config(
            tmp_path, dvfs_mode="dynamic", dvfs_interval_samples=15
        )
        replay(traces, SPEC, 6, factory(), config)
        for file in list_checkpoints(tmp_path):
            resumed = replay(traces, SPEC, 6, factory(), plain, resume_from=file)
            assert pickle.dumps(resumed) == reference

    def test_rng_carrying_approach_uses_object_fallback(self, tmp_path):
        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0)
        reference = replay(traces, SPEC, 6, _JitterApproach(), plain)
        # The jitter draws land in info_per_period, so a resume that
        # failed to carry the mid-stream bit-generator state would
        # produce a different draw sequence and fail the comparison.
        assert all("jitter" in info for info in reference.info_per_period)
        replay(traces, SPEC, 6, _JitterApproach(), _checkpointed_config(tmp_path))
        for file in list_checkpoints(tmp_path):
            resumed = replay(traces, SPEC, 6, _JitterApproach(), plain, resume_from=file)
            assert [info["jitter"] for info in resumed.info_per_period] == [
                info["jitter"] for info in reference.info_per_period
            ]

    def test_fingerprint_mismatch_cold_starts_with_warning(self, tmp_path):
        traces = _traces()
        replay(traces, SPEC, 6, _bfd(), _checkpointed_config(tmp_path))
        other_traces = _traces(seed=99)
        plain = ReplayConfig(tperiod_s=300.0)
        reference = pickle.dumps(replay(other_traces, SPEC, 6, _bfd(), plain))
        with pytest.warns(RuntimeWarning, match="fingerprint mismatch"):
            resumed = replay(other_traces, SPEC, 6, _bfd(), plain, resume_from=tmp_path)
        assert pickle.dumps(resumed) == reference

    def test_schedule_mismatch_cold_starts_with_warning(self, tmp_path):
        # The fault schedule derives deterministically from the config
        # (which the fingerprint already covers), so to exercise the
        # schedule-hash defense in isolation the stored hash is tampered
        # in place: fingerprint still matches, content hash does not.
        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0, faults=_FAULTS)
        reference = pickle.dumps(replay(traces, SPEC, 6, _bfd(), plain))
        replay(traces, SPEC, 6, _bfd(), _checkpointed_config(tmp_path, faults=_FAULTS))
        newest = list_checkpoints(tmp_path)[0]
        loaded = load_checkpoint(newest)
        tampered = dict(loaded.meta)
        tampered["schedule_sha256"] = "0" * 64
        save_checkpoint(newest, tampered, dict(loaded.sections))
        with pytest.warns(RuntimeWarning, match="different fault"):
            resumed = replay(traces, SPEC, 6, _bfd(), plain, resume_from=newest)
        assert pickle.dumps(resumed) == reference

    def test_engine_section_missing_a_field_cold_starts_with_warning(self, tmp_path):
        # An engine section written by an older layout, one accumulator
        # short, is rejected like any other unusable state, before the
        # approach is restored.
        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0)
        reference = pickle.dumps(replay(traces, SPEC, 6, _proposed(), plain))
        replay(traces, SPEC, 6, _proposed(), _checkpointed_config(tmp_path))
        newest = list_checkpoints(tmp_path)[0]
        loaded = load_checkpoint(newest)
        engine = pickle.loads(loaded.sections["engine"])
        del engine["audit_events"]
        sections = {**loaded.sections, "engine": pickle.dumps(engine)}
        save_checkpoint(newest, dict(loaded.meta), sections)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resumed = replay(traces, SPEC, 6, _proposed(), plain, resume_from=newest)
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1 and "state rejected" in messages[0], messages
        assert pickle.dumps(resumed) == reference

    def test_exact_checkpoint_with_full_peak_joints_cold_starts_once(self, tmp_path):
        # The exact-allocator layout before peak parts were condensed:
        # each horizon part carries an N×N joint, beside the allocator's
        # reindex-cache entry.  Restore rejects the parts up front, so
        # the resume cold-starts instead of failing in a later fold.
        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0)
        reference = pickle.dumps(replay(traces, SPEC, 6, _proposed(), plain))
        replay(traces, SPEC, 6, _proposed(), _checkpointed_config(tmp_path))
        newest = list_checkpoints(tmp_path)[0]
        loaded = load_checkpoint(newest)
        payload = pickle.loads(loaded.sections["approach"])
        exact = payload["state"]["allocator"]
        n = len(exact["horizon"]["names"])
        upper = np.triu_indices(n, 1)
        full_parts = []
        for refs, pairs in exact["horizon"]["parts"]:
            joint = np.diag(2.0 * refs)
            joint[upper] = pairs
            joint.T[upper] = pairs
            full_parts.append((refs, joint))
        assert full_parts
        payload["state"]["allocator"] = {
            "allocator": {"reindex_cache": None},
            "horizon": {**exact["horizon"], "parts": full_parts},
            "last_matrix": exact["last_matrix"],
        }
        sections = {**loaded.sections, "approach": pickle.dumps(payload)}
        save_checkpoint(newest, dict(loaded.meta), sections)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resumed = replay(traces, SPEC, 6, _proposed(), plain, resume_from=newest)
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1 and "state rejected" in messages[0], messages
        assert pickle.dumps(resumed) == reference

    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0)
        reference = pickle.dumps(replay(traces, SPEC, 6, _bfd(), plain))
        replay(traces, SPEC, 6, _bfd(), _checkpointed_config(tmp_path))
        files = list_checkpoints(tmp_path)
        assert len(files) >= 2
        blob = bytearray(files[0].read_bytes())
        blob[-1] ^= 0xFF
        files[0].write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="skipping unusable checkpoint"):
            resumed = replay(traces, SPEC, 6, _bfd(), plain, resume_from=tmp_path)
        assert pickle.dumps(resumed) == reference

    def test_empty_resume_dir_cold_starts_silently(self, tmp_path):
        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0)
        reference = pickle.dumps(replay(traces, SPEC, 6, _bfd(), plain))
        resumed = replay(
            traces, SPEC, 6, _bfd(), plain, resume_from=tmp_path / "never-written"
        )
        assert pickle.dumps(resumed) == reference

    def test_checkpointing_never_perturbs_results(self, tmp_path):
        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0)
        reference = pickle.dumps(replay(traces, SPEC, 6, _proposed(), plain))
        # Cadence larger than the horizon: the policy is set but never
        # fires — still byte-identical, and writes nothing.
        idle = _checkpointed_config(tmp_path / "idle", every=10_000)
        assert pickle.dumps(replay(traces, SPEC, 6, _proposed(), idle)) == reference
        assert list_checkpoints(tmp_path / "idle") == []
        # Firing cadence: byte-identical too (tested broadly above, but
        # this pins the exact ReplayResult pickle including audit_events).
        busy = _checkpointed_config(tmp_path / "busy", every=2)
        assert pickle.dumps(replay(traces, SPEC, 6, _proposed(), busy)) == reference

    def test_keep_bounds_retained_files(self, tmp_path):
        traces = _traces()
        config = _checkpointed_config(tmp_path, every=1, keep=2)
        replay(traces, SPEC, 6, _bfd(), config)
        assert len(list_checkpoints(tmp_path)) == 2


def _recipe(*identity) -> str:
    """The run-fingerprint recipe every existing checkpoint was bound with:
    SHA-256 over the pickled ``(layout, *identity)`` tuple."""
    blob = pickle.dumps((CHECKPOINT_LAYOUT, *identity), protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


class TestFingerprintRecipes:
    """Checkpoints already on disk resume only while these hashes hold."""

    @pytest.mark.parametrize("faults", [None, _FAULTS], ids=["plain", "faults"])
    @pytest.mark.parametrize("allocator", ["exact", "sharded"])
    def test_replay_fingerprint(self, tmp_path, allocator, faults):
        from repro.sim.engine import _replay_fingerprint

        traces = _traces()
        approach = (
            _proposed(
                allocator="sharded", sharding=ShardingConfig(num_shards=2), horizon_periods=1
            )
            if allocator == "sharded"
            else _proposed()
        )
        config = _checkpointed_config(tmp_path, faults=faults)
        want = _recipe(
            replace(config, checkpoint=None),
            SPEC,
            6,
            traces.names,
            tuple(traces.matrix.shape),
            float(traces.period_s),
            float(traces.matrix.sum()),
            type(approach).__qualname__,
            str(approach.name),
        )
        assert _replay_fingerprint(traces, SPEC, 6, approach, config) == want

    @pytest.mark.parametrize("allocator", ["exact", "sharded"])
    def test_churn_fingerprint(self, allocator):
        traces = _traces(num_vms=8)
        events = synthesize_churn_events(traces.names, periods=4, period_duration_s=60.0, seed=5)
        config = ManagerConfig(
            n_cores=8,
            freq_levels_ghz=(1.2, 1.8, 2.4),
            allocator=allocator,
            sharding=ShardingConfig(target_shard_vms=4) if allocator == "sharded" else None,
        )
        engine = ChurnEngine(PowerManager(config), traces, events, samples_per_period=12)
        want = _recipe(
            "churn-v1",
            events,
            traces.names,
            tuple(traces.matrix.shape),
            float(traces.period_s),
            float(traces.matrix.sum()),
            12,
            config,
        )
        assert engine.fingerprint() == want


class TestSubprocessCrashRecovery:
    def test_sigkill_mid_replay_then_resume_is_byte_identical(self, tmp_path):
        """A real SIGKILL between checkpoints, then a resumed finish."""
        ckpt_dir = tmp_path / "ck"
        out_path = tmp_path / "result.pkl"
        script = tmp_path / "child.py"
        script.write_text(
            f"""
import pickle, sys, time
sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "src")!r})
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from test_checkpoint import SPEC, _traces, _bfd, _checkpointed_config
from repro.sim.engine import replay

class SleepyBfd(type(_bfd())):
    def decide(self, window):
        time.sleep(0.25)
        return super().decide(window)

traces = _traces()
approach = SleepyBfd(
    SPEC.n_cores, SPEC.freq_levels_ghz, max_servers=6, default_reference=4.0
)
config = _checkpointed_config({str(ckpt_dir)!r})
result = replay(traces, SPEC, 6, approach, config, resume_from={str(ckpt_dir)!r})
with open({str(out_path)!r}, "wb") as fh:
    pickle.dump(result, fh)
"""
        )
        env = dict(os.environ)

        child = subprocess.Popen([sys.executable, str(script)], env=env)
        deadline = time.monotonic() + 60.0
        try:
            while time.monotonic() < deadline:
                if list_checkpoints(ckpt_dir):
                    break
                if child.poll() is not None:
                    pytest.fail("child exited before writing any checkpoint")
                time.sleep(0.05)
            else:
                pytest.fail("no checkpoint appeared within 60s")
        finally:
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        assert not out_path.exists(), "child finished before it was killed"

        rerun = subprocess.run(
            [sys.executable, str(script)], env=env, timeout=120, check=False
        )
        assert rerun.returncode == 0
        with open(out_path, "rb") as fh:
            resumed = pickle.load(fh)

        traces = _traces()
        reference = replay(
            traces,
            SPEC,
            6,
            BfdApproach(
                SPEC.n_cores, SPEC.freq_levels_ghz, max_servers=6, default_reference=4.0
            ),
            ReplayConfig(tperiod_s=300.0),
        )
        assert resumed.energy_j == reference.energy_j
        assert resumed.migrations == reference.migrations
        np.testing.assert_array_equal(resumed.violation_ratio, reference.violation_ratio)
        assert [p.assignment for p in resumed.placements] == [
            p.assignment for p in reference.placements
        ]


# ----------------------------------------------------------------------
# Runtime invariant auditor
# ----------------------------------------------------------------------
class _AsymmetricMatrix:
    def as_array(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = 1.0  # not mirrored at [1, 0]
        return dense


class _CorruptingBfd(BfdApproach):
    """Plants an asymmetric cost matrix after the second decision."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._decides = 0

    def decide(self, window):
        decision = super().decide(window)
        self._decides += 1
        if self._decides == 2:
            self._last_matrix = _AsymmetricMatrix()
        return decision


def _corrupting_factory():
    return _CorruptingBfd(
        SPEC.n_cores, SPEC.freq_levels_ghz, max_servers=6, default_reference=4.0
    )


class TestAuditor:
    def _healthy_state(self, periods=2, servers=2, spp=10):
        residency = FrequencyResidency(servers, (2.0, 2.3))
        for period in range(periods):
            for server in range(servers):
                residency.record(server, 2.0, spp, active=True)
        return dict(
            period=periods,
            samples_per_period=spp,
            violation=np.zeros((periods, servers)),
            residency=residency,
            energy_j=100.0,
            previous_energy_j=40.0,
            counters={"migrations": 3, "evacuations": 0},
            approach=_bfd(),
        )

    def test_healthy_state_has_no_findings(self):
        assert audit.audit_replay_state(**self._healthy_state()) == []

    def test_residency_conservation(self):
        state = self._healthy_state()
        state["residency"].record(0, 2.3, 1, active=True)  # one sample too many
        findings = audit.audit_replay_state(**state)
        assert [check for check, _ in findings] == ["residency"]

    def test_violation_matrix_bounds(self):
        state = self._healthy_state()
        state["violation"] = np.array([[0.5, 2.0], [0.0, 0.1]])
        findings = audit.audit_replay_state(**state)
        assert [check for check, _ in findings] == ["violation_matrix"]
        state["violation"] = np.array([[np.nan, 0.0], [0.0, 0.0]])
        findings = audit.audit_replay_state(**state)
        assert [check for check, _ in findings] == ["violation_matrix"]

    def test_energy_monotonicity(self):
        state = self._healthy_state()
        state["energy_j"] = 30.0  # below previous_energy_j=40
        findings = audit.audit_replay_state(**state)
        assert [check for check, _ in findings] == ["energy"]
        state["energy_j"] = float("nan")
        findings = audit.audit_replay_state(**state)
        assert [check for check, _ in findings] == ["energy"]

    def test_negative_counters(self):
        state = self._healthy_state()
        state["counters"]["migrations"] = -1
        findings = audit.audit_replay_state(**state)
        assert findings == [("counters", "negative accounting: migrations")]

    def test_asymmetric_cost_matrix(self):
        state = self._healthy_state()
        approach = state["approach"]
        approach._last_matrix = _AsymmetricMatrix()
        findings = audit.audit_replay_state(**state)
        assert [check for check, _ in findings] == ["cost_matrix"]

    def test_corrupt_p2_markers(self):
        state = self._healthy_state()
        est = BatchPSquare(90.0, 2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            est.update(rng.uniform(0.0, 1.0, 2))
        est._heights[0, [0, -1]] = est._heights[0, [-1, 0]]
        state["approach"].p2 = est
        findings = audit.audit_replay_state(**state)
        assert [check for check, _ in findings] == ["p2_markers"]

    def _live_proposed(self, **overrides):
        """A ProposedApproach after three real decides (no planted state)."""
        approach = _proposed(**overrides)
        traces = _traces(seed=3, periods=3, spp=20)
        for period in range(3):
            approach.decide(traces.slice(period * 20, (period + 1) * 20))
        return approach

    def test_live_horizon_marker_corruption(self):
        approach = self._live_proposed(reference=ReferenceSpec(90.0), horizon_mode="p2")
        horizon = approach._manager._allocator._horizon
        assert len(horizon._marker_parts) == 3
        state = self._healthy_state()
        state["approach"] = approach
        assert audit.audit_replay_state(**state) == []

        singles, pairs, count = horizon._marker_parts[1]
        assert count >= 5
        singles = singles.copy()
        singles[0] = singles[0, ::-1]
        horizon._marker_parts[1] = (singles, pairs, count)
        findings = audit.audit_replay_state(**state)
        assert [check for check, _ in findings] == ["p2_markers"]

        events = audit.apply_policy(findings, "degrade", approach, 3)
        assert [event.action for event in events] == ["rebuilt"]
        assert horizon._marker_parts == []
        assert audit.audit_replay_state(**state) == []

    def test_live_cost_matrix_corruption(self):
        approach = self._live_proposed()
        state = self._healthy_state()
        state["approach"] = approach
        assert audit.audit_replay_state(**state) == []

        dense = approach._manager._allocator._last_matrix.as_array()
        dense.flags.writeable = True
        dense[0, 1] += 0.25
        findings = audit.audit_replay_state(**state)
        assert [check for check, _ in findings] == ["cost_matrix"]

        events = audit.apply_policy(findings, "degrade", approach, 3)
        assert [event.action for event in events] == ["rebuilt"]
        assert approach._manager._allocator._last_matrix is None

    def test_apply_policy_raise(self):
        with pytest.raises(audit.AuditError, match="cost_matrix"):
            audit.apply_policy([("cost_matrix", "broken")], "raise", _bfd(), 4)

    def test_apply_policy_warn(self):
        with pytest.warns(RuntimeWarning, match="cost_matrix violated at period 4"):
            events = audit.apply_policy([("cost_matrix", "broken")], "warn", _bfd(), 4)
        assert events == (
            audit.AuditEvent(check="cost_matrix", period=4, detail="broken", action="warned"),
        )

    def test_apply_policy_degrade_rebuilds(self):
        approach = _proposed()
        approach._last_matrix = _AsymmetricMatrix()
        events = audit.apply_policy([("cost_matrix", "broken")], "degrade", approach, 4)
        assert events[0].action == "rebuilt"
        assert approach._last_matrix is None

    def test_apply_policy_degrade_records_unrebuildable(self):
        events = audit.apply_policy([("energy", "went backwards")], "degrade", _bfd(), 4)
        assert events[0].action == "recorded"

    def test_replay_raise_mode_aborts(self, tmp_path):
        config = ReplayConfig(
            tperiod_s=300.0,
            checkpoint=CheckpointPolicy(path=tmp_path, every_periods=1, on_violation="raise"),
        )
        with pytest.raises(audit.AuditError, match="cost_matrix"):
            replay(_traces(), SPEC, 6, _corrupting_factory(), config)

    def test_replay_warn_mode_records_and_continues(self, tmp_path):
        config = ReplayConfig(
            tperiod_s=300.0,
            checkpoint=CheckpointPolicy(path=tmp_path, every_periods=1, on_violation="warn"),
        )
        with pytest.warns(RuntimeWarning, match="cost_matrix"):
            result = replay(_traces(), SPEC, 6, _corrupting_factory(), config)
        assert result.audit_events
        assert {event.action for event in result.audit_events} == {"warned"}
        assert {event.check for event in result.audit_events} == {"cost_matrix"}

    def test_replay_degrade_mode_rebuilds_and_continues(self, tmp_path):
        config = ReplayConfig(
            tperiod_s=300.0,
            checkpoint=CheckpointPolicy(
                path=tmp_path, every_periods=1, on_violation="degrade"
            ),
        )
        result = replay(_traces(), SPEC, 6, _corrupting_factory(), config)
        rebuilt = [event for event in result.audit_events if event.action == "rebuilt"]
        assert rebuilt and rebuilt[0].check == "cost_matrix"
        # The rebuild clears the planted matrix, so later boundaries are clean.
        assert {event.period for event in result.audit_events} == {rebuilt[0].period}

    def test_clean_replay_has_no_events(self, tmp_path):
        config = _checkpointed_config(tmp_path)
        result = replay(_traces(), SPEC, 6, _proposed(), config)
        assert result.audit_events == ()

    def test_audit_false_skips_checks(self, tmp_path):
        config = ReplayConfig(
            tperiod_s=300.0,
            checkpoint=CheckpointPolicy(
                path=tmp_path, every_periods=1, audit=False, on_violation="raise"
            ),
        )
        result = replay(_traces(), SPEC, 6, _corrupting_factory(), config)
        assert result.audit_events == ()

    def test_fingerprint_excludes_checkpoint_policy(self, tmp_path):
        from repro.sim.engine import _replay_fingerprint

        traces = _traces()
        plain = ReplayConfig(tperiod_s=300.0)
        with_ckpt = _checkpointed_config(tmp_path)
        assert _replay_fingerprint(
            traces, SPEC, 6, _bfd(), plain
        ) == _replay_fingerprint(traces, SPEC, 6, _bfd(), with_ckpt)
        different = ReplayConfig(tperiod_s=600.0)
        assert _replay_fingerprint(
            traces, SPEC, 6, _bfd(), plain
        ) != _replay_fingerprint(traces, SPEC, 6, _bfd(), different)


class TestValidateP2MarkersHelper:
    def test_short_streams_pass(self):
        validate_p2_markers(np.zeros((2, 5)), np.zeros((2, 5)), 3)

    def test_nonincreasing_positions_fail(self):
        est = BatchPSquare(90.0, 1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            est.update(rng.uniform(0.0, 1.0, 1))
        state = est.snapshot()
        positions = np.array(state["positions"], copy=True)
        positions[0, 1] = positions[0, 0]
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_p2_markers(state["heights"], positions, state["count"])
