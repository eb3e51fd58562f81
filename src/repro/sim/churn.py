"""Churn-driven control loop: decide/admit/retire from an event stream.

The paper's power manager is an online controller; this module drives a
:class:`~repro.core.manager.PowerManager` the way a long-running
allocation service would be driven — from a timestamped arrival/departure
event stream — through the incremental-membership contract
(:meth:`~repro.core.manager.PowerManager.admit` /
:meth:`~repro.core.manager.PowerManager.retire`) instead of
swap-and-rebuild.  Per period the engine applies the events that fell due,
builds the active population's monitoring window from the master trace
set, times one :meth:`~repro.core.manager.PowerManager.decide`, and
records a :class:`ChurnRecord`.

The loop is checkpointable mid-churn through the lifecycle the replay
engine shares in :mod:`repro.sim.checkpoint`: a checkpoint carries the
manager snapshot plus the engine's cursor state (active set, event
cursor, per-period records, audit events), so a killed churn run resumes
byte-identically to an uninterrupted one.  Before each write the
policy's auditor runs the decision-maker state checks of
:mod:`repro.sim.audit` over the manager.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.manager import PowerManager
from repro.sim.audit import AuditEvent, apply_policy, audit_decider_state
from repro.sim.checkpoint import (
    CheckpointPolicy,
    resume_run_state,
    run_fingerprint,
    save_run_state,
)
# Kept importable here: perfbench's tracer patches this module's name.
from repro.sim.checkpoint import save_checkpoint  # noqa: F401
from repro.traces.trace import TraceSet

__all__ = ["ChurnEngine", "ChurnEvent", "ChurnRecord", "synthesize_churn_events"]

_ACTIONS = ("arrive", "depart")


@dataclass(frozen=True)
class ChurnEvent:
    """One timestamped membership change in the request stream."""

    time_s: float
    action: str
    vm: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_s) or self.time_s < 0:
            raise ValueError(f"event time must be finite and non-negative, got {self.time_s!r}")
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, got {self.action!r}")
        if not self.vm:
            raise ValueError("event vm name must be non-empty")


@dataclass(frozen=True)
class ChurnRecord:
    """Per-period outcome of the churn loop (one decide cycle)."""

    period: int
    active_vms: int
    arrivals: int
    departures: int
    servers: int
    #: Sum of the chosen Eqn-4 static frequencies across active servers —
    #: the same monotone static-energy proxy the sharded deviation gate
    #: uses (:func:`repro.core.sharding.placement_energy_proxy`).
    energy_proxy_ghz: float
    decide_ms: float


def synthesize_churn_events(
    names: Sequence[str],
    periods: int,
    period_duration_s: float,
    *,
    events_per_period: int = 2,
    initial_active_fraction: float = 0.5,
    seed: int = 0,
) -> tuple[ChurnEvent, ...]:
    """Deterministic arrival/departure stream over a trace population.

    The initial population (``initial_active_fraction`` of ``names``, in
    trace order) arrives at ``t=0``; every subsequent period draws
    ``events_per_period`` events — alternating departures of random
    active VMs and arrivals from the inactive pool, never emptying the
    active set — at uniform-random offsets within the period.  All
    randomness flows from ``seed``, so the same inputs always produce
    the same stream (a requirement for fingerprint-bound checkpoints).
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError("VM names must be unique")
    if periods < 1:
        raise ValueError("periods must be at least 1")
    if not math.isfinite(period_duration_s) or period_duration_s <= 0:
        raise ValueError("period_duration_s must be positive")
    if events_per_period < 0:
        raise ValueError("events_per_period must be non-negative")
    if not 0.0 < initial_active_fraction <= 1.0:
        raise ValueError("initial_active_fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    initial = max(1, int(round(initial_active_fraction * len(names))))
    active = list(names[:initial])
    inactive = list(names[initial:])
    events = [ChurnEvent(0.0, "arrive", vm) for vm in active]
    for period in range(1, periods):
        offsets = np.sort(rng.uniform(0.0, period_duration_s, size=events_per_period))
        base = period * period_duration_s
        for k in range(events_per_period):
            depart = k % 2 == 0 and len(active) > 1
            if depart:
                index = int(rng.integers(len(active)))
                vm = active.pop(index)
                inactive.append(vm)
                events.append(ChurnEvent(base + float(offsets[k]), "depart", vm))
            elif inactive:
                index = int(rng.integers(len(inactive)))
                vm = inactive.pop(index)
                active.append(vm)
                events.append(ChurnEvent(base + float(offsets[k]), "arrive", vm))
    return tuple(events)


class ChurnEngine:
    """Drives a :class:`PowerManager` from a churn event stream.

    ``traces`` is the master demand pool: every event's VM must name one
    of its rows, and period ``k``'s monitoring window for the active
    population is the sample block ``[k*W, (k+1)*W)`` (wrapping around
    the trace length for unbounded streams), where ``W`` is
    ``samples_per_period``.  One period of wall-clock time is therefore
    ``samples_per_period * traces.period_s`` seconds of event time.

    Active VMs are kept in membership order — survivors keep their
    relative order, arrivals append — which is exactly the window layout
    the incremental horizon fold expects, so a static population pays no
    rebuilds at all and a churn period invalidates only what its delta
    touches.
    """

    def __init__(
        self,
        manager: PowerManager,
        traces: TraceSet,
        events: Sequence[ChurnEvent],
        samples_per_period: int,
        checkpoint: CheckpointPolicy | None = None,
    ) -> None:
        if samples_per_period < 1:
            raise ValueError("samples_per_period must be at least 1")
        events = tuple(events)
        known = set(traces.names)
        unknown = sorted({event.vm for event in events} - known)
        if unknown:
            raise ValueError(f"events name VMs absent from the traces: {unknown!r}")
        times = [event.time_s for event in events]
        if any(later < earlier for earlier, later in zip(times, times[1:], strict=False)):
            raise ValueError("events must be sorted by non-decreasing time")
        self._manager = manager
        self._traces = traces
        self._events = events
        self._samples = int(samples_per_period)
        self._policy = checkpoint
        self._row_of = {name: i for i, name in enumerate(traces.names)}
        self._active: list[str] = []
        self._cursor = 0
        self._next_period = 0
        self._records: list[ChurnRecord] = []
        self._audit_events: list[AuditEvent] = []

    @property
    def manager(self) -> PowerManager:
        """The driven power manager."""
        return self._manager

    @property
    def period_duration_s(self) -> float:
        """Event-time seconds covered by one placement period."""
        return self._samples * self._traces.period_s

    @property
    def active_vms(self) -> tuple[str, ...]:
        """Currently active VMs in membership order."""
        return tuple(self._active)

    @property
    def next_period(self) -> int:
        """The next period index :meth:`run` will execute."""
        return self._next_period

    @property
    def records(self) -> tuple[ChurnRecord, ...]:
        """Per-period records accumulated so far (resume-inclusive)."""
        return tuple(self._records)

    @property
    def audit_events(self) -> tuple[AuditEvent, ...]:
        """Audit findings from the checkpoint boundaries (resume-inclusive)."""
        return tuple(self._audit_events)

    def fingerprint(self) -> str:
        """Identity hash binding checkpoints to this exact churn run.

        Covers the event stream, trace identity, window geometry and the
        manager's frozen config — everything the loop's trajectory
        depends on — so a checkpoint can never silently resume into a
        different run.
        """
        return run_fingerprint(
            "churn-v1",
            self._events,
            self._traces.names,
            tuple(self._traces.matrix.shape),
            float(self._traces.period_s),
            float(self._traces.matrix.sum()),
            int(self._samples),
            self._manager.config,
        )

    def latency_ms(self) -> dict[str, float]:
        """p50/p99/max decide latency over the recorded periods."""
        if not self._records:
            raise ValueError("no periods recorded yet")
        samples = np.array([record.decide_ms for record in self._records])
        return {
            "p50_ms": float(np.percentile(samples, 50.0)),
            "p99_ms": float(np.percentile(samples, 99.0)),
            "max_ms": float(samples.max()),
        }

    def _apply_events_until(self, deadline_s: float) -> tuple[int, int]:
        """Admit/retire every event with ``time_s < deadline_s``."""
        arrivals = departures = 0
        while self._cursor < len(self._events):
            event = self._events[self._cursor]
            if event.time_s >= deadline_s:
                break
            if event.action == "arrive":
                self._manager.admit(event.vm)
                self._active.append(event.vm)
                arrivals += 1
            else:
                self._manager.retire(event.vm)
                self._active.remove(event.vm)
                departures += 1
            self._cursor += 1
        return arrivals, departures

    def _window(self, period: int) -> TraceSet:
        rows = np.array([self._row_of[vm] for vm in self._active], dtype=np.intp)
        total = self._traces.matrix.shape[1]
        cols = np.arange(period * self._samples, (period + 1) * self._samples) % total
        block = np.ascontiguousarray(self._traces.matrix[np.ix_(rows, cols)])
        block.flags.writeable = False
        return TraceSet.from_matrix(block, tuple(self._active), self._traces.period_s)

    def run(
        self,
        periods: int,
        should_stop: Callable[[], bool] | None = None,
        on_record: Callable[[ChurnRecord], None] | None = None,
    ) -> tuple[ChurnRecord, ...]:
        """Execute periods ``next_period .. periods-1`` of the loop.

        ``should_stop`` is polled at each period boundary (the serve
        front end wires SIGTERM to it); stopping writes a final
        checkpoint when a policy is configured, so the interrupted run
        resumes exactly where it left off.  ``on_record`` receives each
        period's record as it lands (periodic reporting).
        """
        if periods < self._next_period:
            raise ValueError(
                f"run to period {periods} but the engine is already at {self._next_period}"
            )
        while self._next_period < periods:
            if should_stop is not None and should_stop():
                if self._policy is not None and self._next_period > 0:
                    self._checkpoint(self._next_period - 1)
                break
            period = self._next_period
            deadline = (period + 1) * self.period_duration_s
            arrivals, departures = self._apply_events_until(deadline)
            if not self._active:
                record = ChurnRecord(period, 0, arrivals, departures, 0, 0.0, 0.0)
            else:
                window = self._window(period)
                started = time.perf_counter()
                decision = self._manager.decide(window)
                decide_ms = (time.perf_counter() - started) * 1e3
                energy = sum(
                    setting.freq_ghz for setting in decision.frequencies.values()
                )
                record = ChurnRecord(
                    period=period,
                    active_vms=len(self._active),
                    arrivals=arrivals,
                    departures=departures,
                    servers=decision.placement.num_servers,
                    energy_proxy_ghz=float(energy),
                    decide_ms=decide_ms,
                )
            self._records.append(record)
            if on_record is not None:
                on_record(record)
            self._next_period = period + 1
            if self._policy is not None and (period + 1) % self._policy.every_periods == 0:
                self._checkpoint(period)
        return tuple(self._records)

    def _checkpoint(self, period: int) -> Path:
        policy = self._policy
        if policy.audit:
            findings = audit_decider_state(self._manager)
            self._audit_events.extend(
                apply_policy(findings, policy.on_violation, self._manager, period)
            )
        state = {
            "active": list(self._active),
            "cursor": int(self._cursor),
            "next_period": int(self._next_period),
            "records": list(self._records),
            "audit_events": list(self._audit_events),
        }
        return save_run_state(policy, period, self.fingerprint(), {}, state, self._manager)

    def resume_latest(self) -> int | None:
        """Restore from the newest valid checkpoint, if any.

        Returns the period the engine will execute next, or ``None``
        when no usable checkpoint exists (cold start).  Checkpoints
        whose identity fingerprint does not match this run are refused
        with ``ValueError`` — resuming a different event stream or
        config would silently diverge.  A checkpoint whose sections no
        longer unpickle, or whose state ``restore`` rejects (state
        written by code that has since changed shape), is reported as a
        ``RuntimeWarning`` and treated as absent (see
        :func:`~repro.sim.checkpoint.resume_run_state`).
        """
        if self._policy is None:
            return None
        resumed = resume_run_state(
            self._policy.path,
            self.fingerprint(),
            self._traces.names,
            self._manager,
            lambda _meta, state: (
                list(state["active"]),
                int(state["cursor"]),
                int(state["next_period"]),
                list(state["records"]),
                list(state["audit_events"]),
            ),
        )
        if resumed is None:
            return None
        engine, _manager = resumed
        self._active, self._cursor, self._next_period, self._records, self._audit_events = engine
        return self._next_period
