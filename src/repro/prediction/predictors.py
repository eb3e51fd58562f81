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
from collections.abc import Sequence
from typing import Protocol

import numpy as np

__all__ = [
    "Predictor",
    "LastValuePredictor",
    "MovingAveragePredictor",
    "EwmaPredictor",
    "MaxOverHistoryPredictor",
    "OraclePredictor",
    "history_bound",
    "append_bounded",
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


class OraclePredictor:
    """Perfect foresight: returns the true upcoming reference.

    The replay engine feeds it the actual next-period value through
    :meth:`prime`.  Used to separate placement quality from predictor
    error in the ablation experiments; no real system has this.
    """

    __slots__ = ("_truth",)

    #: predict() ignores the history entirely.
    history_window = 0

    def __init__(self) -> None:
        self._truth: float | None = None

    def prime(self, upcoming_reference: float) -> None:
        """Inject the true next-period reference before :meth:`predict`."""
        if upcoming_reference < 0:
            raise ValueError("reference must be non-negative")
        self._truth = float(upcoming_reference)

    def predict(self, history: Sequence[float] | np.ndarray) -> float:
        _validated(history)
        if self._truth is None:
            raise RuntimeError("OraclePredictor.predict called before prime()")
        return self._truth
