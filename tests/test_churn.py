"""ChurnEngine: event-driven admit/decide/retire with mid-churn checkpoints.

Pins the satellite-1 guarantee: a service restart from a checkpoint taken
mid-churn equals the uninterrupted run bit-identically — same records,
same final manager snapshot bytes.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro.core.manager import ManagerConfig
from repro.core.sharding import ShardingConfig
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.churn import (
    ChurnEngine,
    ChurnEvent,
    ChurnRecord,
    synthesize_churn_events,
)
from repro.traces.datacenter import DatacenterTraceConfig, generate_datacenter_traces


def _traces(num_vms=12, seed=7):
    traces, _membership = generate_datacenter_traces(
        DatacenterTraceConfig(
            num_vms=num_vms,
            num_clusters=min(4, num_vms),
            seed=seed,
            profile_layout="v2",
        )
    )
    return traces


def _config(allocator="exact"):
    return ManagerConfig(
        n_cores=8,
        freq_levels_ghz=(1.2, 1.8, 2.4),
        allocator=allocator,
        sharding=ShardingConfig(target_shard_vms=6)
        if allocator == "sharded"
        else None,
    )


def _engine(traces, events, checkpoint=None, allocator="exact"):
    from repro.core.manager import PowerManager

    return ChurnEngine(
        PowerManager(_config(allocator)),
        traces,
        events,
        samples_per_period=12,
        checkpoint=checkpoint,
    )


class TestChurnEvents:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="action"):
            ChurnEvent(time_s=0.0, action="explode", vm="a")
        with pytest.raises(ValueError, match="non-negative"):
            ChurnEvent(time_s=-1.0, action="arrive", vm="a")
        with pytest.raises(ValueError, match="vm"):
            ChurnEvent(time_s=0.0, action="arrive", vm="")

    def test_synthesize_is_deterministic_and_consistent(self):
        names = tuple(f"vm{i:02d}" for i in range(10))
        a = synthesize_churn_events(names, periods=6, period_duration_s=3600.0, seed=3)
        b = synthesize_churn_events(names, periods=6, period_duration_s=3600.0, seed=3)
        assert a == b
        assert a != synthesize_churn_events(
            names, periods=6, period_duration_s=3600.0, seed=4
        )
        times = [event.time_s for event in a]
        assert times == sorted(times)
        # Replaying the feed never departs an inactive VM or re-arrives
        # an active one, and the population never empties.
        active: set[str] = set()
        for event in a:
            if event.action == "arrive":
                assert event.vm not in active
                active.add(event.vm)
            else:
                assert event.vm in active
                active.remove(event.vm)
                assert active
        assert sum(1 for e in a if e.time_s == 0.0) == 5


class TestChurnEngine:
    def test_run_produces_records_and_latency_summary(self):
        traces = _traces()
        events = synthesize_churn_events(
            traces.names, periods=4, period_duration_s=12 * traces.period_s, seed=1
        )
        engine = _engine(traces, events)
        records = engine.run(4)
        assert len(records) == 4
        assert all(isinstance(record, ChurnRecord) for record in records)
        assert [record.period for record in records] == [0, 1, 2, 3]
        assert all(record.active_vms > 0 for record in records)
        assert all(record.servers >= 1 for record in records)
        stats = engine.latency_ms()
        assert 0.0 < stats["p50_ms"] <= stats["p99_ms"] <= stats["max_ms"]

    def test_empty_period_yields_zero_record(self):
        traces = _traces(num_vms=4)
        period = 12 * traces.period_s
        events = [
            ChurnEvent(time_s=period, action="arrive", vm=traces.names[0]),
        ]
        engine = _engine(traces, events)
        records = engine.run(2)
        assert records[0].active_vms == 0
        assert records[0].servers == 0
        assert records[1].active_vms == 1

    def test_events_outside_population_rejected(self):
        traces = _traces(num_vms=4)
        with pytest.raises(ValueError, match="absent from the traces"):
            _engine(traces, [ChurnEvent(time_s=0.0, action="arrive", vm="ghost")])

    def test_unsorted_events_rejected(self):
        traces = _traces(num_vms=4)
        names = traces.names
        events = [
            ChurnEvent(time_s=100.0, action="arrive", vm=names[0]),
            ChurnEvent(time_s=0.0, action="arrive", vm=names[1]),
        ]
        with pytest.raises(ValueError, match="non-decreasing"):
            _engine(traces, events)


class _RetiredState:
    """Stands in for checkpointed state whose class was later deleted."""


class TestKillMidChurn:
    """Satellite 1: restart-from-checkpoint equals cold uninterrupted run."""

    PERIODS = 8
    STOP_AT = 5

    def _events(self, traces):
        return synthesize_churn_events(
            traces.names,
            periods=self.PERIODS,
            period_duration_s=12 * traces.period_s,
            seed=2,
        )

    @pytest.mark.parametrize("allocator", ["exact", "sharded"])
    def test_resume_is_bit_identical(self, tmp_path, allocator):
        traces = _traces(num_vms=16)
        events = self._events(traces)

        uninterrupted = _engine(traces, events, allocator=allocator)
        want_records = uninterrupted.run(self.PERIODS)
        want_state = pickle.dumps(uninterrupted.manager.snapshot())

        policy = CheckpointPolicy(tmp_path / "ck", every_periods=2, keep=3)
        killed = _engine(traces, events, checkpoint=policy, allocator=allocator)

        def should_stop():
            return killed.next_period >= self.STOP_AT

        killed.run(self.PERIODS, should_stop=should_stop)
        assert killed.next_period == self.STOP_AT
        assert any((tmp_path / "ck").glob("*.ckpt"))

        revived = _engine(traces, events, checkpoint=policy, allocator=allocator)
        resumed_period = revived.resume_latest()
        assert resumed_period == self.STOP_AT
        got_records = revived.run(self.PERIODS)

        def stable(record):
            return (
                record.period,
                record.active_vms,
                record.arrivals,
                record.departures,
                record.servers,
                record.energy_proxy_ghz,
            )

        assert [stable(r) for r in got_records] == [stable(r) for r in want_records]
        assert pickle.dumps(revived.manager.snapshot()) == want_state

    def test_resume_refuses_mismatched_feed(self, tmp_path):
        traces = _traces(num_vms=8)
        events = self._events(traces)
        policy = CheckpointPolicy(tmp_path / "ck", every_periods=2)
        engine = _engine(traces, events, checkpoint=policy)
        engine.run(4)

        other_events = synthesize_churn_events(
            traces.names, periods=self.PERIODS, period_duration_s=12 * traces.period_s,
            seed=99,
        )
        stranger = _engine(traces, other_events, checkpoint=policy)
        with pytest.raises(ValueError, match="fingerprint"):
            stranger.resume_latest()

    def test_unreadable_checkpoint_warns_and_cold_starts(self, tmp_path, monkeypatch):
        """A checkpoint pickled against a class the code no longer has."""
        traces = _traces(num_vms=8)
        events = self._events(traces)
        policy = CheckpointPolicy(tmp_path / "ck", every_periods=2)
        engine = _engine(traces, events, checkpoint=policy)
        snapshot = engine.manager.snapshot
        monkeypatch.setattr(
            engine.manager, "snapshot", lambda: {**snapshot(), "retired": _RetiredState()}
        )
        engine.run(4)

        monkeypatch.delattr(sys.modules[__name__], "_RetiredState")
        revived = _engine(traces, events, checkpoint=policy)
        with pytest.warns(RuntimeWarning, match=r"\.ckpt failed to deserialize .*_RetiredState"):
            assert revived.resume_latest() is None
        assert revived.next_period == 0

    def test_resume_without_checkpoint_is_cold_start(self, tmp_path):
        traces = _traces(num_vms=8)
        events = self._events(traces)
        policy = CheckpointPolicy(tmp_path / "empty", every_periods=2)
        engine = _engine(traces, events, checkpoint=policy)
        assert engine.resume_latest() is None
        assert engine.next_period == 0
