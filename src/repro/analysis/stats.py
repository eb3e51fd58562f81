"""Exact and streaming statistics used by the correlation machinery.

The paper's correlation cost (Eqn 1) is built from *reference utilizations*
``u_hat`` — the peak or an Nth-percentile value of a CPU-utilization signal.
Section IV-A motivates the new metric partly on grounds of cost: Pearson's
correlation requires buffering a full window of samples, whereas the
proposed metric "can update the values at each sampling period", saving
memory and spreading compute evenly over the monitoring horizon.

To honour that claim the library ships both:

* exact, numpy-backed batch statistics (:func:`percentile`,
  :func:`pearson`) used by tests and small experiments, and
* O(1)-per-sample streaming estimators (:class:`RunningMax`,
  :class:`PSquarePercentile`), the scalar references of the online
  cost matrix in :mod:`repro.core.correlation`.

The streaming percentile estimator is the classic P-square algorithm of
Jain & Chlamtac (CACM 1985), which tracks five markers and adjusts them
with piecewise-parabolic interpolation; it needs no sample buffer.

:class:`BatchPSquare` runs many P-square estimators in lockstep over flat
``(n_streams, 5)`` marker arrays, folding one value per stream per update
with masked array operations.  It is the kernel behind the vectorized
streaming cost matrix (one stream per unordered VM pair); the scalar
:class:`PSquarePercentile` remains the reference implementation the
property tests compare it against.

The marker state itself is a first-class, *mergeable* object: a batch
estimator can :meth:`~BatchPSquare.snapshot`/:meth:`~BatchPSquare.restore`
its full state, bulk-fold a whole monitoring window
(:meth:`~BatchPSquare.fold_window`), and emit a compact
:meth:`~BatchPSquare.marker_state` whose five heights approximate the
:func:`p2_marker_fractions` quantiles.  :func:`fold_marker_states` merges
such states (or richer :func:`quantile_fold_fractions` summaries computed
exactly per window) into the percentile of the concatenated streams by
inverting the count-weighted mixture of their piecewise-linear CDFs —
the approximation behind the incremental percentile-mode horizon cost in
:mod:`repro.core.correlation`, whose error the property tests bound.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import pairwise

import numpy as np

__all__ = [
    "percentile",
    "pearson",
    "RunningMax",
    "PSquarePercentile",
    "RunningPercentile",
    "BatchPSquare",
    "p2_marker_fractions",
    "quantile_fold_fractions",
    "fold_marker_states",
    "validate_p2_markers",
]


def validate_p2_markers(heights, positions, count: int) -> None:
    """Check the P-square marker invariants on an ``(n, 5)`` state.

    With markers live (``count >= 5``), per-stream positions must be
    strictly increasing — degenerate (repeated) positions would divide
    by zero in the parabolic adjustment — and marker heights sorted.
    Shared by :meth:`BatchPSquare.restore` (snapshots make otherwise
    unreachable states reachable) and the replay invariant auditor
    (:mod:`repro.sim.audit`).  Raises :class:`ValueError` on violation.
    """
    if count < 5:
        return
    if np.any(np.diff(np.asarray(positions, dtype=float), axis=1) <= 0):
        raise ValueError("snapshot positions must be strictly increasing per stream")
    if np.any(np.diff(np.asarray(heights, dtype=float), axis=1) < 0):
        raise ValueError("snapshot heights must be sorted per stream")


def p2_marker_fractions(q: float) -> np.ndarray:
    """The five P-square marker fractions ``[0, p/2, p, (1+p)/2, 1]``.

    ``q`` is in percent; the returned fractions are in ``[0, 1]``.  These
    are the cumulative probabilities the P-square markers track (minimum,
    two flanking quantiles, the target quantile, maximum) and double as
    the probability knots of the mergeable marker states consumed by
    :func:`fold_marker_states`.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"marker fractions need an interior percentile, got {q}")
    p = q / 100.0
    return np.array([0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0])


def quantile_fold_fractions(q: float) -> np.ndarray:
    """An enriched marker grid for folding window summaries across a horizon.

    Extends the five P-square fractions with quartiles, geometric
    subdivisions of the head ``[0, p]`` and a geometric ladder into the
    tail ``[p, 1]``.  The extra knots cost nothing to extract from a
    sorted window and cut the piecewise-linear-CDF folding error of
    :func:`fold_marker_states` severalfold when the folded windows sit at
    different levels (e.g. diurnal drift across a placement horizon) —
    most visibly for tail references like the 99th percentile, whose
    inversion probes the upper body of every window's CDF.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"marker fractions need an interior percentile, got {q}")
    p = q / 100.0
    tail = 1.0 - (1.0 - p) * np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    head = p * np.array([0.25, 0.5, 0.75])
    grid = np.concatenate(([0.0, 0.25, 0.5, 0.75, 1.0, p], head, tail))
    grid = grid[(grid >= 0.0) & (grid <= 1.0)]
    return np.unique(np.round(grid, 12))


#: Bisection depth of :func:`fold_marker_states` — the returned quantile is
#: within ``2**-12`` of the bracket width (itself at most the spread of the
#: per-state q-markers), far below the marker-compression error it rides on.
_FOLD_BISECTIONS = 12

#: Streams bisected together by :func:`fold_marker_states`.  One chunk's
#: marker-major copy — 1.3 MB for three float32 states on the 13-marker
#: grid — stays in a 2 MB per-core L2 cache through all the bisection
#: steps, where a whole-population pass streams every plane from memory
#: twelve times.
_FOLD_CHUNK_STREAMS = 8192


def fold_marker_states(
    marker_heights: Sequence[np.ndarray] | np.ndarray,
    counts: Sequence[int] | np.ndarray,
    q: float,
    fractions: np.ndarray | None = None,
) -> np.ndarray:
    """Merge per-stream quantile marker states into one ``q``-th estimate.

    ``marker_heights`` holds ``K`` marker states — a 3-D stack or a
    sequence of 2-D arrays — of shape
    ``(n_streams, len(fractions))``, each row non-decreasing marker
    heights whose cumulative probabilities are ``fractions`` (default:
    the five P-square fractions, i.e. exactly what
    :meth:`BatchPSquare.marker_state` emits).  ``counts`` gives each
    state's sample count; the merged estimate is the ``q``-th quantile of
    the *mixture* of the states' piecewise-linear CDFs, weighted by
    count — the quantile of the concatenated underlying samples, up to
    the marker compression.

    The inversion bisects the monotone mixture CDF for
    ``inf {x : F(x) >= p}``, which lands exactly on atoms (duplicate
    marker heights from constant or idle streams) instead of smearing
    them, and degenerates to the state's own ``q`` marker when ``K == 1``.

    The bisection runs in the dtype of ``marker_heights``: float64
    states (the :class:`BatchPSquare` default) fold at full precision,
    while a caller with millions of pair streams can hand float32 states
    over and halve the memory bandwidth of the loop — rounding at 1e-7
    relative is noise against the marker-compression error either way.
    Streams are bisected a cache-sized chunk at a time; every stream's
    result is the same bits as one bisection over all streams at once.
    """
    states = _marker_states(marker_heights)
    dtype = states[0].dtype
    num_states = len(states)
    num_streams, num_markers = states[0].shape
    fr = p2_marker_fractions(q) if fractions is None else np.asarray(fractions, dtype=float)
    if fr.ndim != 1 or fr.size != num_markers:
        raise ValueError(
            f"{num_markers} markers per state but {fr.size} fractions"
        )
    p = q / 100.0
    target = int(np.argmin(np.abs(fr - p)))
    if not np.isclose(fr[target], p):
        raise ValueError(f"fractions must include the target quantile {p}")
    weights = np.asarray(counts, dtype=float)
    if weights.shape != (num_states,) or np.any(weights <= 0):
        raise ValueError("counts must supply one positive sample count per state")
    if num_states == 1:
        return states[0][:, target].astype(float)
    weights = (weights / weights.sum()).astype(dtype)
    fr = fr.astype(dtype)
    # Interpolation cell ``c`` spans markers ``c - 1`` and ``c``.  Its
    # lower fraction and fraction step are tabulated once per cell; index
    # -1 wraps exactly like a per-stream ``fr[c - 1]`` gather would.
    fr_lower = fr[np.arange(num_markers) - 1]
    fr_step = fr - fr_lower

    folded = np.empty(num_streams, dtype=float)
    # Balanced chunks, so a chunk holds one stream only when the whole
    # population does: numpy adds a ``(states, 1)`` product over states
    # pairwise instead of in sequence, which rounds differently from
    # eight states up.
    chunks = -(-num_streams // _FOLD_CHUNK_STREAMS)
    if chunks == 0:
        return folded
    bounds = [num_streams * i // chunks for i in range(chunks + 1)]
    scratch = np.empty(num_states * num_markers * -(-num_streams // chunks), dtype=dtype)
    for start, stop in pairwise(bounds):
        folded[start:stop] = _bisect_mixture(
            [state[start:stop] for state in states], weights, fr_lower, fr_step, target, p, scratch
        )
    return folded


def _marker_states(marker_heights: Sequence[np.ndarray] | np.ndarray) -> list[np.ndarray]:
    """The ``K`` marker states as a list of equal-shape 2-D float arrays.

    States are never stacked into one array: that would copy every state
    (78 MB for three float32 states of 499,500 pair streams) although the
    fold reads one stream chunk at a time.  A stacked 3-D array yields
    its states as views.  All states take the dtype they would stack to,
    or float when that is not floating.
    """
    states = [np.asarray(state) for state in marker_heights]
    if not states or any(state.ndim != 2 or state.shape != states[0].shape for state in states):
        shapes = sorted({state.shape for state in states})
        raise ValueError(f"marker_heights must stack to 3-D, got states of shapes {shapes}")
    dtype = np.result_type(*states)
    if not np.issubdtype(dtype, np.floating):
        dtype = np.dtype(float)
    return [state.astype(dtype, copy=False) for state in states]


def _bisect_mixture(
    states: list[np.ndarray],
    weights: np.ndarray,
    fr_lower: np.ndarray,
    fr_step: np.ndarray,
    target: int,
    p: float,
    scratch: np.ndarray,
) -> np.ndarray:
    """The mixture-CDF bisection of :func:`fold_marker_states` on one chunk.

    ``states`` holds one ``(streams, markers)`` chunk per state.  They are
    copied once into a marker-major ``(states, markers, streams)`` plane
    inside ``scratch``, so each marker compare is one contiguous pass and
    the bracketing heights are flat-index gathers from the plane.
    """
    num_states = len(states)
    num_streams, num_markers = states[0].shape
    dtype = states[0].dtype
    p_t = dtype.type(p)
    half = dtype.type(0.5)
    one = dtype.type(1.0)
    plane = scratch[: num_states * num_markers * num_streams].reshape(
        num_states, num_markers, num_streams
    )
    for layer, state in zip(plane, states, strict=True):
        np.copyto(layer, state.T)
    flat = plane.reshape(-1)
    # Flat plane offset of (state, marker 0, stream); with a single marker
    # the lower bracket wraps onto marker 0 itself.
    base = np.arange(num_states)[:, None] * (num_markers * num_streams) + np.arange(num_streams)
    back = num_streams if num_markers > 1 else 0
    shape = (num_states, num_streams)
    below = np.empty(shape, dtype=bool)
    count = np.empty(shape, dtype=np.uint8 if num_markers < 256 else np.intp)
    cell = np.empty(shape, dtype=np.intp)
    at = np.empty(shape, dtype=np.intp)
    flat_cell = np.empty(shape, dtype=bool)

    # The mixture quantile is bracketed by the per-state q markers.
    low = plane[:, target].min(axis=0)
    high = plane[:, target].max(axis=0)
    for _ in range(_FOLD_BISECTIONS):
        mid = half * (low + high)
        # Piecewise-linear CDF of every state at ``mid``, all states at
        # once: locate the bracketing markers, interpolate their
        # fractions (duplicate-marker atoms degenerate to a step).
        np.less_equal(plane[:, 0], mid, out=below)
        np.copyto(count, below)
        for marker in range(1, num_markers):
            np.less_equal(plane[:, marker], mid, out=below)
            count += below
        np.maximum(count, 1, out=count)
        np.minimum(count, num_markers - 1, out=count)
        np.copyto(cell, count)
        np.multiply(cell, num_streams, out=at)
        at += base
        upper = flat.take(at)
        at -= back
        lower = flat.take(at)
        span = upper - lower
        # Where the cell is flat (no positive span) the CDF is a step:
        # divide by one there, then overwrite with ``mid >= upper``.
        np.greater(span, 0.0, out=flat_cell)
        np.logical_not(flat_cell, out=flat_cell)
        np.copyto(span, one, where=flat_cell)
        t = mid - lower
        t /= span
        np.copyto(t, mid >= upper, where=flat_cell)
        np.clip(t, 0.0, 1.0, out=t)
        mixture = (weights[:, None] * (fr_lower.take(cell) + t * fr_step.take(cell))).sum(axis=0)
        above = mixture >= p_t
        high = np.where(above, mid, high)
        low = np.where(above, low, mid)
    return high


def percentile(samples: Sequence[float] | np.ndarray, q: float) -> float:
    """Return the ``q``-th percentile of ``samples`` (linear interpolation).

    ``q`` is expressed in percent, e.g. ``q=90`` for the 90th percentile and
    ``q=100`` for the peak.  Raises :class:`ValueError` on empty input or a
    ``q`` outside ``[0, 100]`` — silent extrapolation would corrupt the
    reference utilizations that every placement decision depends on.
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot take a percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    return float(np.percentile(data, q))


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson product-moment correlation of two equal-length signals.

    This is the conventional correlation measure the paper argues against
    for online use (Section IV-A); it is retained for the metric-ablation
    experiments and for validating the Eqn-1 cost against ground truth.
    Degenerate (zero-variance) inputs return ``0.0`` rather than NaN so the
    ablation code can treat constant traces as "uncorrelated".
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"shape mismatch: {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise ValueError("need at least two samples for a correlation")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    denom = math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xc, yc) / denom)


class RunningMax:
    """O(1) streaming maximum — the peak (100th percentile) reference.

    The default reference utilization in the paper is the peak, so the
    streaming cost matrix mostly needs nothing fancier than this.
    """

    __slots__ = ("_best", "_count")

    def __init__(self) -> None:
        self._best = -math.inf
        self._count = 0

    def update(self, value: float) -> None:
        """Fold one sample into the running maximum."""
        if value > self._best:
            self._best = value
        self._count += 1

    def extend(self, values: Iterable[float]) -> None:
        """Fold an iterable of samples into the running maximum."""
        for value in values:
            self.update(value)

    @property
    def count(self) -> int:
        """Number of samples observed so far."""
        return self._count

    @property
    def value(self) -> float:
        """Current maximum; raises if no samples have been observed."""
        if self._count == 0:
            raise ValueError("RunningMax has seen no samples")
        return self._best

    def reset(self) -> None:
        """Forget all observed samples (used at each placement period)."""
        self._best = -math.inf
        self._count = 0


class PSquarePercentile:
    """P-square streaming percentile estimator (Jain & Chlamtac, 1985).

    Tracks the ``q``-th percentile of a stream with five markers and no
    sample buffer.  This is what lets the cost matrix honour the paper's
    claim that the correlation measure is updated "at each sampling period"
    with evenly distributed computational effort, even when the reference
    utilization is an off-peak percentile rather than the true peak.

    The estimator is exact while at most five samples have been seen (it
    falls back to sorting the short buffer; the markers only take over
    from the sixth sample, when the parabolic adjustment first runs) and
    converges to the true percentile as the stream grows; the
    property-based tests bound its error against :func:`percentile` on
    several distributions and pin it against :class:`BatchPSquare` in
    lockstep, including duplicate-heavy streams around the handoff.
    """

    __slots__ = ("_q", "_initial", "_heights", "_positions", "_desired", "_increments", "_count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 100.0:
            raise ValueError(
                f"P-square tracks strictly interior percentiles, got {q}; "
                "use RunningMax for the peak"
            )
        self._q = q
        p = q / 100.0
        self._initial: list[float] = []
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self._count = 0

    @property
    def q(self) -> float:
        """Percentile being tracked, in percent."""
        return self._q

    @property
    def count(self) -> int:
        """Number of samples observed so far."""
        return self._count

    def update(self, value: float) -> None:
        """Fold one sample into the estimate."""
        self._count += 1
        if len(self._initial) < 5:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._heights = sorted(self._initial)
            return
        self._absorb(value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold an iterable of samples into the estimate."""
        for value in values:
            self.update(value)

    def _absorb(self, value: float) -> None:
        heights = self._heights
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            step_up = positions[i + 1] - positions[i]
            step_down = positions[i - 1] - positions[i]
            if (delta >= 1.0 and step_up > 1.0) or (delta <= -1.0 and step_down < -1.0):
                direction = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, direction)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, direction)
                positions[i] += direction

    def _parabolic(self, i: int, direction: float) -> float:
        heights = self._heights
        positions = self._positions
        span = positions[i + 1] - positions[i - 1]
        upper = (positions[i] - positions[i - 1] + direction) * (
            (heights[i + 1] - heights[i]) / (positions[i + 1] - positions[i])
        )
        lower = (positions[i + 1] - positions[i] - direction) * (
            (heights[i] - heights[i - 1]) / (positions[i] - positions[i - 1])
        )
        return heights[i] + direction / span * (upper + lower)

    def _linear(self, i: int, direction: float) -> float:
        heights = self._heights
        positions = self._positions
        j = i + int(direction)
        return heights[i] + direction * (heights[j] - heights[i]) / (positions[j] - positions[i])

    @property
    def value(self) -> float:
        """Current percentile estimate; raises before the first sample.

        Exact (interpolated over the buffered samples) through the fifth
        sample inclusive: at exactly five samples the markers have just
        been seeded and ``heights[2]`` would be the raw median regardless
        of ``q`` — the buffer still holds all five samples, so the exact
        answer is free and the estimate hands off to the markers only
        once they have actually adjusted.
        """
        if self._count == 0:
            raise ValueError("PSquarePercentile has seen no samples")
        if self._count <= 5:
            data = sorted(self._initial)
            return percentile(data, self._q)
        return self._heights[2]

    def reset(self) -> None:
        """Forget all observed samples."""
        p = self._q / 100.0
        self._initial = []
        self._heights = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self._count = 0


#: Marker index per row of a marker-major ``(5, n)`` state.
_MARKER_RANKS = np.arange(5)[:, None]

#: Streams per chunk of :meth:`BatchPSquare.fold_window`: the chunk's
#: marker-major state (three ``(5, chunk)`` float64 arrays, 960 KB) and
#: its per-sample temporaries stay in a 2 MB per-core L2 cache for the
#: whole window, and the fold never copies more state than this.
_FOLD_STREAMS = 8192


def _absorb_markers(
    values: np.ndarray,
    heights: np.ndarray,
    positions: np.ndarray,
    desired: np.ndarray,
    increments: np.ndarray,
) -> None:
    """One vectorized P² absorb step, in place on marker-major arrays.

    ``heights``, ``positions`` and ``desired`` are ``(5, n)``: row ``i``
    holds marker ``i`` of every stream, so each marker is one contiguous
    row when the arrays are (or copy) the stored ``(n, 5)`` state
    transposed — a ``.T`` view works too, at strided speed.  Only the
    streams whose marker moves run the parabolic/linear step: every
    operation is elementwise, so a stream's result does not depend on
    which other streams share the call.
    """
    low = values < heights[0]
    high = values >= heights[4]
    np.copyto(heights[0], values, where=low)
    np.copyto(heights[4], values, where=high)
    # The scalar walk `while cell < 3 and value >= heights[cell + 1]`
    # counts how many of the middle markers the value clears.
    cell = (values >= heights[1:4]).sum(axis=0)
    cell[low] = 0
    cell[high] = 3
    positions += _MARKER_RANKS > cell
    desired += increments[:, None]
    for i in (1, 2, 3):
        delta = desired[i] - positions[i]
        step_up = positions[i + 1] - positions[i]
        step_down = positions[i - 1] - positions[i]
        move = ((delta >= 1.0) & (step_up > 1.0)) | ((delta <= -1.0) & (step_down < -1.0))
        moved = move.nonzero()[0]
        if not moved.size:
            continue
        h_lo, h, h_hi = heights[i - 1, moved], heights[i, moved], heights[i + 1, moved]
        p_lo, p, p_hi = positions[i - 1, moved], positions[i, moved], positions[i + 1, moved]
        direction = np.where(delta[moved] >= 1.0, 1.0, -1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            span = p_hi - p_lo
            upper = (p - p_lo + direction) * ((h_hi - h) / (p_hi - p))
            lower = (p_hi - p - direction) * ((h - h_lo) / (p - p_lo))
            candidate = h + direction / span * (upper + lower)
            parabolic_ok = (h_lo < candidate) & (candidate < h_hi)
            neighbour_h = np.where(direction > 0, h_hi, h_lo)
            neighbour_p = np.where(direction > 0, p_hi, p_lo)
            linear = h + direction * (neighbour_h - h) / (neighbour_p - p)
        heights[i, moved] = np.where(parabolic_ok, candidate, linear)
        positions[i, moved] = p + direction


class BatchPSquare:
    """``n_streams`` P-square estimators advanced in lockstep.

    Functionally equivalent to a list of :class:`PSquarePercentile`, but
    the five marker heights, positions and desired positions live in
    ``(n_streams, 5)`` float arrays and one :meth:`update` call folds a
    value into *every* stream with masked array operations.  This is what
    makes a percentile-mode streaming cost matrix over ``N(N-1)/2`` VM
    pairs affordable: one vectorized pass per sample instead of one
    Python call per pair.

    All streams must advance together (every update supplies one value
    per stream), which is exactly the cost-matrix access pattern — each
    monitoring sample yields one joint utilization per pair.

    Streams may *join* at different times: :meth:`remap_streams` grows,
    shrinks or reorders the stream set, seeding fresh streams with empty
    warm-up state.  Until every stream has seen the same number of
    samples the estimator tracks per-stream counts internally; uniform
    populations keep the original single-counter fast path (and the
    original snapshot layout) bit-for-bit.
    """

    __slots__ = (
        "_q",
        "_n",
        "_initial",
        "_heights",
        "_positions",
        "_desired",
        "_increments",
        "_count",
        "_counts",
    )

    def __init__(self, q: float, n_streams: int) -> None:
        if not 0.0 < q < 100.0:
            raise ValueError(
                f"P-square tracks strictly interior percentiles, got {q}; "
                "use a running maximum for the peak"
            )
        if n_streams < 1:
            raise ValueError("need at least one stream")
        self._q = q
        self._n = n_streams
        p = q / 100.0
        # Zero-filled (not np.empty): unwritten warm-up slots are never
        # *read*, but they are serialized, and snapshots of a half-warm
        # estimator must be byte-deterministic.
        self._initial = np.zeros((n_streams, 5), dtype=float)
        self._heights = np.zeros((n_streams, 5), dtype=float)
        self._positions = np.zeros((n_streams, 5), dtype=float)
        self._desired = np.tile(
            np.array([1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]),
            (n_streams, 1),
        )
        self._increments = np.array([0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0])
        self._count = 0
        #: Per-stream sample counts, or ``None`` while every stream has
        #: seen exactly ``_count`` samples (the uniform fast path).
        self._counts: np.ndarray | None = None

    @property
    def q(self) -> float:
        """Percentile being tracked, in percent."""
        return self._q

    @property
    def n_streams(self) -> int:
        """Number of parallel estimators."""
        return self._n

    @property
    def count(self) -> int:
        """Samples folded into every stream (the minimum across streams)."""
        return self._count

    def stream_counts(self) -> np.ndarray:
        """Per-stream sample counts as an ``(n_streams,)`` int array."""
        if self._counts is None:
            return np.full(self._n, self._count, dtype=np.intp)
        return self._counts.copy()

    def update(self, values: Sequence[float] | np.ndarray) -> None:
        """Fold one value per stream into the estimates."""
        data = np.asarray(values, dtype=float)
        if data.shape != (self._n,):
            raise ValueError(f"expected {self._n} values, got shape {data.shape}")
        if self._counts is None:
            if self._count < 5:
                self._initial[:, self._count] = data
                self._count += 1
                if self._count == 5:
                    self._heights = np.sort(self._initial, axis=1)
                    self._positions = np.tile(np.arange(1.0, 6.0), (self._n, 1))
                return
            self._absorb(data)
            self._count += 1
            return
        counts = self._counts
        warm = counts < 5
        if warm.any():
            rows = np.flatnonzero(warm)
            self._initial[rows, counts[rows]] = data[rows]
            mature = np.flatnonzero(~warm)
            if mature.size:
                self._absorb_rows(data, mature)
            counts += 1
            seeded = rows[counts[rows] == 5]
            if seeded.size:
                self._heights[seeded] = np.sort(self._initial[seeded], axis=1)
                self._positions[seeded] = np.arange(1.0, 6.0)
        else:
            self._absorb(data)
            counts += 1
        self._count = int(counts.min())
        if self._count == int(counts.max()):
            self._counts = None

    def _absorb(self, values: np.ndarray) -> None:
        _absorb_markers(
            values, self._heights.T, self._positions.T, self._desired.T, self._increments
        )

    def _absorb_rows(self, values: np.ndarray, rows: np.ndarray) -> None:
        """Run one absorb step on a subset of streams only.

        The marker update is row-independent, so running it on gathered
        copies and scattering the results back is value-identical to the
        full-width :meth:`_absorb` restricted to ``rows``.
        """
        heights = self._heights[rows]
        positions = self._positions[rows]
        desired = self._desired[rows]
        _absorb_markers(values[rows], heights.T, positions.T, desired.T, self._increments)
        self._heights[rows] = heights
        self._positions[rows] = positions
        self._desired[rows] = desired

    def extend(self, rows: Iterable[Sequence[float]]) -> None:
        """Fold an iterable of per-stream value vectors in."""
        for row in rows:
            self.update(row)

    def fold_window(self, block: np.ndarray) -> None:
        """Bulk-fold a ``(num_samples, n_streams)`` sample block in.

        Exactly lockstep with calling :meth:`update` once per row —
        the rolling-horizon callers hand whole monitoring windows over
        instead of driving the per-sample loop from Python.
        """
        data = np.asarray(block, dtype=float)
        if data.ndim != 2 or data.shape[1] != self._n:
            raise ValueError(
                f"expected a (num_samples, {self._n}) block, got shape {data.shape}"
            )
        start = 0
        while self._count < 5 and start < data.shape[0]:
            self.update(data[start])
            start += 1
        rest = data[start:]
        if not rest.shape[0]:
            return
        # Every stream is mature here (heterogeneous counts included), so
        # each stream chunk folds the rest of the window through one
        # marker-major copy of its state, and every sample reads and
        # writes contiguous marker rows.
        for lo in range(0, self._n, _FOLD_STREAMS):
            hi = min(lo + _FOLD_STREAMS, self._n)
            heights = self._heights[lo:hi].T.copy()
            positions = self._positions[lo:hi].T.copy()
            desired = self._desired[lo:hi].T.copy()
            for row in rest[:, lo:hi]:
                _absorb_markers(row, heights, positions, desired, self._increments)
            self._heights[lo:hi] = heights.T
            self._positions[lo:hi] = positions.T
            self._desired[lo:hi] = desired.T
        if self._counts is not None:
            self._counts += rest.shape[0]
        self._count += rest.shape[0]

    def snapshot(self) -> dict:
        """Serializable copy of the full marker state.

        The returned dict contains only plain floats/ints and fresh
        ndarray copies, so it pickles cleanly and survives mutation of
        the live estimator.  Feed it back through :meth:`restore`.

        A ``"counts"`` key is present only while per-stream counts are
        heterogeneous, so snapshots of uniform populations keep the
        pre-membership layout byte-for-byte.
        """
        state = {
            "q": self._q,
            "n_streams": self._n,
            "count": self._count,
            "initial": self._initial.copy(),
            "heights": self._heights.copy(),
            "positions": self._positions.copy(),
            "desired": self._desired.copy(),
        }
        if self._counts is not None:
            state["counts"] = self._counts.copy()
        return state

    def restore(self, state: Mapping) -> None:
        """Reinstall a :meth:`snapshot`, validating it first.

        Snapshots make otherwise-unreachable marker states reachable, so
        the invariants the update step relies on are checked here: with
        markers live (count > 5), per-stream positions must be strictly
        increasing — degenerate (repeated) positions would divide by
        zero in the parabolic adjustment — and marker heights sorted.
        """
        if state["q"] != self._q or state["n_streams"] != self._n:
            raise ValueError(
                f"snapshot is for q={state['q']}, {state['n_streams']} streams; "
                f"this estimator tracks q={self._q} over {self._n} streams"
            )
        count = int(state["count"])
        if count < 0:
            raise ValueError("snapshot count must be non-negative")
        shape = (self._n, 5)
        arrays = {}
        for key in ("initial", "heights", "positions", "desired"):
            array = np.ascontiguousarray(state[key], dtype=float)
            if array.shape != shape:
                raise ValueError(f"snapshot {key!r} must have shape {shape}")
            if array is state.get(key):
                array = array.copy()
            arrays[key] = array
        counts_state = state.get("counts")
        if counts_state is None:
            counts = None
            validate_p2_markers(arrays["heights"], arrays["positions"], count)
        else:
            counts = np.ascontiguousarray(counts_state, dtype=np.intp)
            if counts.shape != (self._n,):
                raise ValueError(f"snapshot 'counts' must have shape ({self._n},)")
            if counts is counts_state:
                counts = counts.copy()
            if (counts < 0).any():
                raise ValueError("snapshot per-stream counts must be non-negative")
            if int(counts.min()) != count:
                raise ValueError("snapshot count must equal the minimum per-stream count")
            if int(counts.max()) == count:
                counts = None
            else:
                mature = np.flatnonzero(counts >= 5)
                if mature.size:
                    validate_p2_markers(
                        arrays["heights"][mature], arrays["positions"][mature], 5
                    )
        self._count = count
        self._counts = counts
        self._initial = arrays["initial"]
        self._heights = arrays["heights"]
        self._positions = arrays["positions"]
        self._desired = arrays["desired"]

    def marker_state(self) -> tuple[np.ndarray, int]:
        """Mergeable five-marker summary: ``(heights (n, 5), count)``.

        Heights sit at the :func:`p2_marker_fractions` probabilities —
        exact (interpolated from the warm-up buffer) through the fifth
        sample, the live P-square markers afterwards.  Stack states from
        several estimators into :func:`fold_marker_states` to estimate
        the percentile of the concatenated streams.
        """
        if self._counts is not None:
            raise ValueError(
                "marker_state requires uniform per-stream counts; streams added "
                "through remap_streams must catch up before marker folding"
            )
        if self._count == 0:
            raise ValueError("BatchPSquare has seen no samples")
        if self._count <= 5:
            fractions = p2_marker_fractions(self._q)
            heights = np.percentile(
                self._initial[:, : self._count], fractions * 100.0, axis=1
            ).T
            return np.ascontiguousarray(heights), self._count
        return self._heights.copy(), self._count

    @property
    def values(self) -> np.ndarray:
        """Current per-stream percentile estimates (``(n_streams,)``).

        Exact through the fifth sample inclusive, mirroring
        :attr:`PSquarePercentile.value` — the freshly seeded markers
        would report the raw median regardless of ``q``.

        Under heterogeneous counts the estimate is per-stream: exact
        from the warm-up buffer while a stream's own count is ≤ 5, the
        live markers afterwards, and ``NaN`` for streams with no samples
        yet (a stream freshly added by :meth:`remap_streams`).
        """
        if self._counts is not None:
            counts = self._counts
            out = np.empty(self._n, dtype=float)
            mature = counts > 5
            out[mature] = self._heights[mature, 2]
            for c in np.unique(counts[~mature]):
                sel = (counts == int(c)) & ~mature
                if c == 0:
                    out[sel] = np.nan
                else:
                    out[sel] = np.percentile(self._initial[sel, : int(c)], self._q, axis=1)
            return out
        if self._count == 0:
            raise ValueError("BatchPSquare has seen no samples")
        if self._count <= 5:
            return np.percentile(self._initial[:, : self._count], self._q, axis=1)
        return self._heights[:, 2].copy()

    def remap_streams(self, mapping: Sequence[int] | np.ndarray) -> None:
        """Grow, shrink or reorder the stream set in place.

        ``mapping[k]`` is the current stream index that becomes new
        stream ``k``, or ``-1`` to seed a *fresh* stream (no samples
        yet).  Surviving streams carry their warm-up buffers, markers
        and per-stream counts over untouched; fresh streams start from
        the same state a new estimator would give them, so the next
        updates warm them up exactly like a scalar
        :class:`PSquarePercentile` seeing its first samples.
        """
        m = np.asarray(mapping, dtype=np.intp)
        if m.ndim != 1:
            raise ValueError(f"mapping must be one-dimensional, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("need at least one stream")
        if m.size and (int(m.max()) >= self._n or int(m.min()) < -1):
            raise ValueError(
                f"mapping entries must be -1 or valid stream indices below {self._n}"
            )
        fresh = m < 0
        src = np.where(fresh, 0, m)
        initial = self._initial[src]
        heights = self._heights[src]
        positions = self._positions[src]
        desired = self._desired[src]
        counts = self.stream_counts()[src]
        initial[fresh] = 0.0
        heights[fresh] = 0.0
        positions[fresh] = 0.0
        p = self._q / 100.0
        desired[fresh] = np.array([1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0])
        counts[fresh] = 0
        self._n = int(m.shape[0])
        self._initial = initial
        self._heights = heights
        self._positions = positions
        self._desired = desired
        self._count = int(counts.min())
        self._counts = None if self._count == int(counts.max()) else counts

    def reset(self) -> None:
        """Forget all observed samples in every stream."""
        p = self._q / 100.0
        self._initial = np.zeros((self._n, 5), dtype=float)
        self._heights = np.zeros((self._n, 5), dtype=float)
        self._positions = np.zeros((self._n, 5), dtype=float)
        self._desired = np.tile(
            np.array([1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]),
            (self._n, 1),
        )
        self._count = 0
        self._counts = None


class RunningPercentile:
    """Reference-utilization estimator: streaming peak or percentile.

    Unifies :class:`RunningMax` (``q == 100``) and
    :class:`PSquarePercentile` (``q < 100``) behind one interface so that
    the cost matrix can be configured with a single *reference percentile*
    knob, mirroring the paper's "peak or Nth percentile depending on QoS
    requirement".
    """

    __slots__ = ("_q", "_impl")

    def __init__(self, q: float = 100.0) -> None:
        if not 0.0 < q <= 100.0:
            raise ValueError(f"reference percentile must lie in (0, 100], got {q}")
        self._q = q
        self._impl: RunningMax | PSquarePercentile
        if q == 100.0:
            self._impl = RunningMax()
        else:
            self._impl = PSquarePercentile(q)

    @property
    def q(self) -> float:
        """Percentile being tracked, in percent (100 means the peak)."""
        return self._q

    @property
    def count(self) -> int:
        """Number of samples observed so far."""
        return self._impl.count

    @property
    def value(self) -> float:
        """Current reference-utilization estimate."""
        return self._impl.value

    def update(self, value: float) -> None:
        """Fold one utilization sample into the estimate."""
        self._impl.update(value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold an iterable of utilization samples into the estimate."""
        self._impl.extend(values)

    def reset(self) -> None:
        """Forget all observed samples (called at each placement period)."""
        self._impl.reset()
