"""Outside-in timing: a period clock and a layer tracer.

Nothing in ``src/`` knows it is being timed.  :class:`PeriodClock` wraps
a program object's ``decide`` on the instance and timestamps every entry,
so a period runs from one entry to the next.

:meth:`Tracer.install` replaces each entry point listed in
:data:`ENTRY_POINTS` with a wrapper that records one span per call (name,
start, end, parent, and an optional amount such as VMs placed or bytes
written), and :meth:`Tracer.uninstall` puts the originals back.  Names
bound by ``from ... import`` are patched in every module that imported
them, because patching only the defining module would miss those call
sites.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; :func:`per_layer` reports it per
measured period, clipped to the measured window so set-up work never
leaks into a layer's share.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass

# Span record layout: [name, start_ns, end_ns, parent_index, amount].
NAME, START, END, PARENT, AMOUNT = range(5)


class Stopped(Exception):
    """Raised by the clock to end a loop at a chosen ``decide()`` entry."""


class PeriodClock:
    """Timestamps ``decide()`` entries (ns) and keeps each decision's outputs."""

    def __init__(self, stop_at: int | None = None) -> None:
        self.stop_at = stop_at
        self.started = time.perf_counter_ns()
        self.ended = 0
        self.entries: list[int] = []
        #: ``(population, placement, frequencies)`` per completed decide.
        self.decisions: list[tuple] = []

    def wrap(self, decide: Callable) -> Callable:
        def clocked(window):
            self.entries.append(time.perf_counter_ns())
            if len(self.entries) == self.stop_at:
                raise Stopped
            decision = decide(window)
            self.decisions.append((window.names, decision.placement, decision.frequencies))
            return decision

        return clocked

    def stop(self) -> None:
        """Mark the end of the last period."""
        self.ended = time.perf_counter_ns()

    def digest(self, upto: int | None = None) -> str:
        """Hash of the recorded placements and frequency plans."""
        h = hashlib.sha256()
        for names, placement, frequencies in self.decisions[:upto]:
            h.update(repr((names, tuple(placement.assignment.items()))).encode())
            h.update(repr(sorted((s, f.freq_ghz) for s, f in frequencies.items())).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class EntryPoint:
    """One public callable to wrap, and every place it is looked up from."""

    layer: str
    #: ``(module, attribute path)`` pairs; a dotted path names a class member.
    sites: tuple[tuple[str, str], ...]
    #: Optional ``amount(args, result)`` recorded on the span.
    amount: Callable[[tuple, object], float] | None = None


def _vm_ids(args: tuple, _result: object) -> float:
    ids = args[1]
    return 1.0 if isinstance(ids, str) else float(len(ids))


def _shards(args: tuple, _result: object) -> float:
    return float(args[0].last_num_shards)


def _evacuees(_args: tuple, result: object) -> float:
    return float(len(result[2]))


def _file_bytes(_args: tuple, result: object) -> float:
    return float(os.path.getsize(result))


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("engine.replay", (("repro.sim.engine", "replay"),)),
    EntryPoint("approaches.decide", (("repro.sim.approaches", "ProposedApproach.decide"),)),
    EntryPoint(
        "correlation.horizon_push", (("repro.core.correlation", "RollingCostHorizon.push"),)
    ),
    EntryPoint("correlation.cost_build", (("repro.core.correlation", "CostMatrix.from_traces"),)),
    EntryPoint(
        "allocation.allocate",
        (("repro.core.allocation", "CorrelationAwareAllocator.allocate"),),
        _vm_ids,
    ),
    EntryPoint(
        "allocation.evacuate", (("repro.core.allocation", "CorrelationAwareAllocator.evacuate"),)
    ),
    EntryPoint(
        "sharding.allocate", (("repro.core.sharding", "ShardedAllocator.allocate"),), _shards
    ),
    EntryPoint(
        "vf_control.frequency",
        (
            ("repro.core.vf_control", "correlation_aware_frequency"),
            ("repro.sim.approaches", "correlation_aware_frequency"),
            ("repro.core.manager", "correlation_aware_frequency"),
            ("repro.core.sharding", "correlation_aware_frequency"),
        ),
    ),
    EntryPoint("manager.admit", (("repro.core.manager", "PowerManager.admit"),), _vm_ids),
    EntryPoint("manager.retire", (("repro.core.manager", "PowerManager.retire"),), _vm_ids),
    EntryPoint("manager.observe", (("repro.core.manager", "PowerManager.observe"),)),
    EntryPoint("manager.predict", (("repro.core.manager", "PowerManager.predict"),)),
    EntryPoint("manager.decide", (("repro.core.manager", "PowerManager.decide"),)),
    EntryPoint(
        "faults.evacuate_fleet",
        (("repro.sim.faults", "evacuate_fleet"), ("repro.sim.engine", "evacuate_fleet")),
        _evacuees,
    ),
    EntryPoint(
        "checkpoint.save",
        (
            ("repro.sim.checkpoint", "save_checkpoint"),
            ("repro.sim.engine", "save_checkpoint"),
            ("repro.sim.churn", "save_checkpoint"),
        ),
        _file_bytes,
    ),
    EntryPoint("churn.run", (("repro.sim.churn", "ChurnEngine.run"),)),
)


class Tracer:
    """In-memory span store; spans nest by call order on one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def wrap(self, layer: str, fn: Callable, amount=None) -> Callable:
        """``fn`` with a span recorded around every call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [layer, time.perf_counter_ns(), 0, stack[-1] if stack else -1, 0.0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter_ns()
                stack.pop()
            if amount is not None:
                record[AMOUNT] = amount(args, result)
            return result

        return traced

    def install(self, entry_points: Iterable[EntryPoint] = ENTRY_POINTS) -> None:
        """Patch every site of every entry point (undone by :meth:`uninstall`)."""
        wrapped: dict[int, Callable] = {}
        for entry in entry_points:
            for module_name, path in entry.sites:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                self._patch(owner, attr, entry, wrapped)

    def _patch(self, owner, attr: str, entry: EntryPoint, wrapped: dict) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        # classmethod/staticmethod objects must be rebuilt around the
        # wrapped function, or the class would lose the binding rule.
        kind = type(raw) if isinstance(raw, classmethod | staticmethod) else None
        fn = raw.__func__ if kind is not None else raw
        # One wrapper per function, whichever module it is looked up from.
        traced = wrapped.setdefault(id(fn), self.wrap(entry.layer, fn, entry.amount))
        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            self._undo.pop()()


def self_times(spans: list[list], window: tuple[int, int]) -> list[int]:
    """Per-span self time (ns) inside ``window``.

    Each span's duration is clipped to the window, then the clipped
    durations of its direct children are subtracted, which is exact
    because a child's interval always lies inside its parent's.
    """
    lo, hi = window
    own = [max(0, min(span[END], hi) - max(span[START], lo)) for span in spans]
    result = list(own)
    for span, clipped in zip(spans, own, strict=True):
        if span[PARENT] >= 0:
            result[span[PARENT]] -= clipped
    return result


def per_layer(spans: list[list], window: tuple[int, int], periods: int) -> dict[str, dict]:
    """Self ms, calls and summed amounts per layer, per measured period.

    A call counts toward the window when it starts inside it.
    """
    lo, hi = window
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    amounts: dict[str, float] = defaultdict(float)
    for span, ns in zip(spans, self_times(spans, window), strict=True):
        self_ns[span[NAME]] += ns
        if lo <= span[START] < hi:
            calls[span[NAME]] += 1
            amounts[span[NAME]] += span[AMOUNT]
    return {
        entry.layer: {
            "self_ms": self_ns[entry.layer] / 1e6 / periods,
            "calls": calls[entry.layer] / periods,
            "amount": amounts[entry.layer] / periods,
        }
        for entry in ENTRY_POINTS
    }
