"""Runtime invariant auditor for the replay and churn loops.

Cheap, vectorized self-checks over live loop state, run at every
checkpoint boundary (``CheckpointPolicy(audit=True)``) right before the
checkpoint is written — corrupted state must never be persisted as if
it were healthy.  :func:`repro.sim.engine.replay` runs every check
(:func:`audit_replay_state`); :class:`repro.sim.churn.ChurnEngine`
(behind ``repro serve``) has no accounting, so it runs only the
decision-maker state checks, ``cost_matrix`` and ``p2_markers``
(:func:`audit_decider_state`).  The checks:

* **residency** — per-server frequency-residency bincounts (active
  levels + inactive) must account for exactly ``period *
  samples_per_period`` samples per server, with no negative counts;
* **violation_matrix** — per-period violation ratios finite and in
  ``[0, 1]``;
* **energy** — the energy accumulator finite, non-negative, and
  monotone non-decreasing across checkpoint boundaries;
* **counters** — committed accounting (migrations, evacuations,
  unserved demand, unplaced VM-periods) non-negative;
* **cost_matrix** — the decision-maker's last cost matrix finite and exactly
  symmetric (it is symmetric by construction, so any asymmetry is
  memory corruption, not roundoff);
* **p2_markers** — every reachable P² marker state (standalone
  :class:`~repro.analysis.stats.BatchPSquare` estimators, streaming
  cost-matrix estimators, rolling-horizon marker parts) monotone per
  stream (:func:`~repro.analysis.stats.validate_p2_markers`).

``on_violation`` selects the failure mode: ``"raise"`` aborts the loop
with :class:`AuditError`; ``"warn"`` emits a ``RuntimeWarning`` per
finding and records it; ``"degrade"`` rebuilds the corrupted component
where one is rebuildable (streaming estimators and caches are derived
state — resetting them costs accuracy for a few periods, never
correctness) and records what happened.  Events land in
``ReplayResult.audit_events`` or ``ChurnEngine.audit_events``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import BatchPSquare, validate_p2_markers
from repro.core.correlation import RollingCostHorizon, StreamingCostMatrix

__all__ = [
    "AuditError",
    "AuditEvent",
    "apply_policy",
    "audit_decider_state",
    "audit_replay_state",
]


class AuditError(RuntimeError):
    """An invariant violation under ``on_violation="raise"``."""


@dataclass(frozen=True)
class AuditEvent:
    """One recorded invariant violation (lands in ``ReplayResult`` or
    ``ChurnEngine.audit_events``).

    ``action`` is what the auditor did about it: ``"warned"`` (warn
    mode), ``"rebuilt"`` (degrade mode, corrupted component reset) or
    ``"recorded"`` (degrade mode, nothing rebuildable — accumulator
    totals cannot be re-derived mid-stream).
    """

    check: str
    period: int
    detail: str
    action: str


#: Checks whose backing state is derived (re-derivable) and therefore
#: rebuildable under ``on_violation="degrade"``.
_REBUILDABLE = frozenset({"cost_matrix", "p2_markers"})


def _scanned(approach):
    """The decision-maker, the manager it wraps and that manager's
    allocator backend (where the rolling horizon and the latest cost
    matrix live); a bare ``PowerManager`` is its own manager."""
    manager = getattr(approach, "_manager", None)
    allocator = getattr(approach if manager is None else manager, "_allocator", None)
    return [obj for obj in (approach, manager, allocator) if hasattr(obj, "__dict__")]


def _iter_attrs(approach):
    for obj in _scanned(approach):
        yield from vars(obj).values()


def _iter_p2_estimators(approach):
    """Duck-typed scan of an approach for live P² estimators."""
    for value in _iter_attrs(approach):
        if isinstance(value, BatchPSquare):
            yield value
        elif isinstance(value, StreamingCostMatrix):
            for estimator in (value._single_est, value._pair_est):
                if estimator is not None:
                    yield estimator


def _iter_horizons(approach):
    for value in _iter_attrs(approach):
        if isinstance(value, RollingCostHorizon):
            yield value


def audit_replay_state(
    *,
    period: int,
    samples_per_period: int,
    violation: np.ndarray,
    residency,
    energy_j: float,
    previous_energy_j: float,
    counters: dict,
    approach,
) -> list[tuple[str, str]]:
    """Run every check; returns ``[(check, detail), ...]`` findings.

    Pure inspection — never mutates the replay state; pair with
    :func:`apply_policy` to act on the findings.
    """
    findings: list[tuple[str, str]] = []

    # Residency conservation: every server contributes samples_per_period
    # samples per completed period, split between active levels and the
    # inactive bucket.
    state = residency.snapshot()
    counts = np.asarray(state["counts"])
    inactive = np.asarray(state["inactive"])
    if np.any(counts < 0) or np.any(inactive < 0):
        findings.append(("residency", "negative residency counts"))
    else:
        expected = period * samples_per_period
        totals = counts.sum(axis=1) + inactive
        bad = np.flatnonzero(totals != expected)
        if bad.size:
            findings.append(
                (
                    "residency",
                    f"{bad.size} server(s) account for the wrong sample total "
                    f"(expected {expected}, e.g. server {bad[0]} has "
                    f"{totals[bad[0]]})",
                )
            )

    measured = violation[:period]
    if not np.all(np.isfinite(measured)):
        findings.append(("violation_matrix", "non-finite violation ratios"))
    elif measured.size and (measured.min() < 0.0 or measured.max() > 1.0):
        findings.append(
            (
                "violation_matrix",
                f"violation ratios outside [0, 1] "
                f"(min {measured.min():.6g}, max {measured.max():.6g})",
            )
        )

    if not np.isfinite(energy_j) or energy_j < 0.0:
        findings.append(("energy", f"energy accumulator is {energy_j!r}"))
    elif energy_j < previous_energy_j:
        findings.append(
            (
                "energy",
                f"energy accumulator decreased across checkpoints "
                f"({previous_energy_j!r} -> {energy_j!r})",
            )
        )

    negative = [
        name for name, value in counters.items() if not value >= 0
    ]
    if negative:
        findings.append(("counters", f"negative accounting: {', '.join(negative)}"))

    findings.extend(audit_decider_state(approach))
    return findings


def audit_decider_state(approach) -> list[tuple[str, str]]:
    """The ``cost_matrix`` and ``p2_markers`` checks over an approach or
    a ``PowerManager``; pure inspection, like :func:`audit_replay_state`."""
    findings: list[tuple[str, str]] = []
    for obj in _scanned(approach):
        matrix = getattr(obj, "_last_matrix", None)
        if hasattr(matrix, "as_array"):
            dense = matrix.as_array()
            if not np.all(np.isfinite(dense)):
                findings.append(("cost_matrix", "non-finite cost-matrix entries"))
            elif not np.array_equal(dense, dense.T):
                findings.append(("cost_matrix", "cost matrix is not symmetric"))

    for estimator in _iter_p2_estimators(approach):
        try:
            validate_p2_markers(
                estimator._heights, estimator._positions, estimator._count
            )
        except ValueError as error:
            findings.append(("p2_markers", str(error)))
            break
    else:
        for horizon in _iter_horizons(approach):
            parts = getattr(horizon, "_marker_parts", ())
            for singles, pairs, count in parts:
                if count >= 5 and (
                    np.any(np.diff(singles, axis=1) < 0)
                    or np.any(np.diff(pairs, axis=1) < 0)
                ):
                    findings.append(
                        ("p2_markers", "horizon marker heights are not sorted")
                    )
                    break
            else:
                continue
            break

    return findings


def _rebuild_component(approach, check: str) -> bool:
    """Reset the derived state behind a rebuildable check (duck-typed).

    Returns True when something was actually reset.  The rebuild is
    deliberately coarse — streaming estimators, horizon rings and
    allocator caches all restart cold — because a corrupted estimator's
    history is unrecoverable and a cold restart is merely approximate
    for a few periods, never wrong.
    """
    rebuilt = False
    for obj in _scanned(approach):
        horizon = getattr(obj, "_horizon", None)
        if horizon is not None and hasattr(horizon, "reset"):
            horizon.reset()
            rebuilt = True
        allocator = getattr(obj, "_allocator", None)
        if allocator is not None and hasattr(allocator, "reset"):
            allocator.reset()
            rebuilt = True
        if getattr(obj, "_last_matrix", None) is not None:
            obj._last_matrix = None
            rebuilt = True
    if check == "p2_markers":
        for value in _iter_attrs(approach):
            if isinstance(value, (BatchPSquare, StreamingCostMatrix)):
                value.reset()
                rebuilt = True
    return rebuilt


def apply_policy(
    findings: list[tuple[str, str]],
    on_violation: str,
    approach,
    period: int,
) -> tuple[AuditEvent, ...]:
    """Act on audit findings per ``on_violation``."""
    if not findings:
        return ()
    if on_violation == "raise":
        raise AuditError(
            f"audit failed at period {period}: "
            + "; ".join(f"{check}: {detail}" for check, detail in findings)
        )
    events = []
    for check, detail in findings:
        if on_violation == "degrade":
            if check in _REBUILDABLE and _rebuild_component(approach, check):
                action = "rebuilt"
            else:
                action = "recorded"
        else:
            warnings.warn(
                f"audit: {check} violated at period {period}: {detail}",
                RuntimeWarning,
                stacklevel=2,
            )
            action = "warned"
        events.append(AuditEvent(check=check, period=period, detail=detail, action=action))
    return tuple(events)
