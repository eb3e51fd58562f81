"""Reference-utilization predictors.

A predictor sees, at the start of each placement period, the per-period
history of *reference utilizations* (peak or Nth-percentile demand, one
value per past period) of one VM and must estimate the reference
utilization of the upcoming period — the ``u_hat_tilde`` of Eqn 3 that the
allocator provisions against.

The interface is deliberately scalar-per-period rather than raw-samples:
the paper's placement operates on per-period summaries, and keeping
predictors pure functions of a 1-D history array makes them trivially
testable and swappable.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from typing import Protocol

import numpy as np

from repro.traces.trace import ReferenceSpec, TraceSet

__all__ = [
    "Predictor",
    "LastValuePredictor",
    "MovingAveragePredictor",
    "EwmaPredictor",
    "MaxOverHistoryPredictor",
    "history_bound",
    "append_bounded",
    "ReferenceHistory",
]


class Predictor(Protocol):
    """Estimates next-period reference utilization from per-period history.

    Implementations may expose an optional ``history_window`` attribute —
    the number of trailing history values :meth:`predict` actually reads
    (``None`` for "all of it").  History keepers use it to bound per-VM
    history growth; absent, they conservatively keep everything.
    """

    def predict(self, history: Sequence[float] | np.ndarray) -> float:
        """Prediction for the next period; ``history`` is oldest-first.

        An empty history is legal (the very first placement period) and
        implementations must return a conservative default for it.
        """
        ...


def history_bound(predictor: Predictor) -> int | None:
    """The predictor's declared ``history_window``, validated.

    ``None`` (also for predictors without the attribute) means the
    predictor may read the whole history, so none may be dropped.
    """
    window = getattr(predictor, "history_window", None)
    if window is not None and window < 0:
        raise ValueError(f"history_window must be non-negative, got {window}")
    return window


def append_bounded(history: list[float], value: float, bound: int | None) -> None:
    """Append ``value``, then drop the values a ``bound``-window predictor never reads.

    Keeps per-VM histories from growing without limit over a long replay
    or a long-running control loop.
    """
    history.append(value)
    if bound is not None and len(history) > bound:
        del history[: len(history) - bound]


class ReferenceHistory:
    """Per-VM observed reference history plus next-period prediction.

    The history keeper of :class:`~repro.core.manager.PowerManager` and
    the replay baselines.  Supports *oracle priming*: the replay engine
    may inject the true upcoming references (``ReplayConfig.oracle``),
    which replace the predictor's output for exactly one :meth:`predict`
    and so separate placement quality from predictor error.

    Histories are bounded to the predictor's declared ``history_window``
    (see :func:`history_bound`), so a long replay or control loop does
    not grow per-VM lists forever.
    """

    def __init__(self, spec: ReferenceSpec, predictor: Predictor, default: float) -> None:
        self._spec = spec
        self._predictor = predictor
        self._default = default
        self._bound = history_bound(predictor)
        self._history: dict[str, list[float]] = {}
        self._primed: dict[str, float] | None = None

    def __contains__(self, vm: str) -> bool:
        return vm in self._history

    @property
    def history(self) -> dict[str, tuple[float, ...]]:
        """Per-VM observed references, oldest first."""
        return {vm: tuple(values) for vm, values in self._history.items()}

    def prime(self, true_references: Mapping[str, float]) -> None:
        """Inject the true upcoming references (consumed by the next predict)."""
        self._primed = dict(true_references)

    def observe(self, window: TraceSet) -> dict[str, float]:
        """Append each VM's observed reference; returns them.

        The whole window is checked before any append: one stored NaN
        would make a full-history predictor (EWMA) raise on every later
        period, clean windows included.
        """
        observed = self.check(window)
        self.record(observed)
        return observed

    def check(self, window: TraceSet) -> dict[str, float]:
        """Each VM's observed reference, validated but not yet recorded."""
        observed = window.references(self._spec)
        bad = [vm for vm, value in observed.items() if not math.isfinite(value) or value < 0.0]
        if bad:
            raise ValueError(f"non-finite or negative references observed for: {bad}")
        return observed

    def record(self, observed: Mapping[str, float]) -> None:
        """Append references that passed :meth:`check`."""
        for vm, value in observed.items():
            append_bounded(self._history.setdefault(vm, []), value, self._bound)

    def predict(self, vm_ids: Sequence[str]) -> dict[str, float]:
        """Predicted next-period reference per VM (primed value first;
        a never-observed VM gets the default)."""
        primed = self._primed
        self._primed = None
        predictions: dict[str, float] = {}
        for vm in vm_ids:
            if primed is not None and vm in primed:
                predictions[vm] = primed[vm]
                continue
            history = self._history.get(vm)
            predictions[vm] = (
                self._default if history is None else self._predictor.predict(history)
            )
        return predictions

    def drop(self, vm_ids: Iterable[str]) -> None:
        """Forget departed VMs."""
        for vm in vm_ids:
            self._history.pop(vm, None)

    def reset(self) -> None:
        self._history.clear()
        self._primed = None

    def snapshot(self) -> dict:
        return {
            "history": {vm: list(values) for vm, values in self._history.items()},
            "primed": None if self._primed is None else dict(self._primed),
        }

    def restore(self, state: dict) -> None:
        self._history = {vm: list(values) for vm, values in state["history"].items()}
        self._primed = None if state["primed"] is None else dict(state["primed"])


def _validated(history: Sequence[float] | np.ndarray) -> np.ndarray:
    if (
        type(history) is list
        and len(history) <= 8
        and all(type(item) is float for item in history)
    ):
        # Fast path for the short bounded lists the reference-history
        # keepers feed in every period: plain-float checks beat the
        # asarray + any/all reduction round trip by an order of magnitude.
        for value in history:
            if value < 0.0 or not math.isfinite(value):
                raise ValueError("history values must be finite and non-negative")
        return np.array(history, dtype=float)
    data = np.asarray(history, dtype=float)
    if data.ndim != 1:
        raise ValueError(f"history must be one-dimensional, got shape {data.shape}")
    if data.size and (np.any(data < 0) or not np.all(np.isfinite(data))):
        raise ValueError("history values must be finite and non-negative")
    return data


class LastValuePredictor:
    """The paper's predictor: next period repeats the last observed value.

    With no history, predicts ``default`` (callers pass the VM's core cap
    so the very first placement is maximally conservative).
    """

    __slots__ = ("_default",)

    #: predict() only reads the last value.
    history_window = 1

    def __init__(self, default: float = 0.0) -> None:
        if default < 0:
            raise ValueError("default prediction must be non-negative")
        self._default = default

    def predict(self, history: Sequence[float] | np.ndarray) -> float:
        data = _validated(history)
        if data.size == 0:
            return self._default
        return float(data[-1])


class MovingAveragePredictor:
    """Mean of the last ``window`` per-period references.

    Smoother than last-value: slower to chase bursts, slower to recover
    from them.  Used by the predictor-ablation bench.
    """

    __slots__ = ("_window", "_default")

    def __init__(self, window: int = 3, default: float = 0.0) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if default < 0:
            raise ValueError("default prediction must be non-negative")
        self._window = window
        self._default = default

    @property
    def history_window(self) -> int:
        """predict() only reads the last ``window`` values."""
        return self._window

    def predict(self, history: Sequence[float] | np.ndarray) -> float:
        data = _validated(history)
        if data.size == 0:
            return self._default
        return float(data[-self._window :].mean())


class EwmaPredictor:
    """Exponentially weighted moving average with smoothing ``alpha``.

    ``alpha`` close to 1 approaches last-value behaviour; close to 0 it
    approaches a long-run mean.
    """

    __slots__ = ("_alpha", "_default")

    #: The EWMA folds the *entire* history (old values decay but never
    #: leave the recurrence), so it declares an unbounded window.
    history_window = None

    def __init__(self, alpha: float = 0.5, default: float = 0.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if default < 0:
            raise ValueError("default prediction must be non-negative")
        self._alpha = alpha
        self._default = default

    def predict(self, history: Sequence[float] | np.ndarray) -> float:
        data = _validated(history)
        if data.size == 0:
            return self._default
        estimate = float(data[0])
        for value in data[1:]:
            estimate = self._alpha * float(value) + (1.0 - self._alpha) * estimate
        return estimate


class MaxOverHistoryPredictor:
    """Maximum over the last ``window`` references — worst-case hedging.

    Essentially eliminates under-prediction at the price of provisioning
    for stale peaks; the ablation bench uses it to bound how much of the
    violation gap is attributable to predictor error.
    """

    __slots__ = ("_window", "_default")

    def __init__(self, window: int = 3, default: float = 0.0) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if default < 0:
            raise ValueError("default prediction must be non-negative")
        self._window = window
        self._default = default

    @property
    def history_window(self) -> int:
        """predict() only reads the last ``window`` values."""
        return self._window

    def predict(self, history: Sequence[float] | np.ndarray) -> float:
        data = _validated(history)
        if data.size == 0:
            return self._default
        return float(data[-self._window :].max())
