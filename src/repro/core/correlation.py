"""The Eqn-1 correlation cost and the pairwise cost matrix ``M_cost``.

Section IV-A defines, for two VMs ``i`` and ``j``,

``Cost_vm(i, j) = (u_hat(VM_i) + u_hat(VM_j)) / u_hat(VM_i + VM_j)``

where ``u_hat`` is the reference utilization (peak or Nth percentile).
The numerator is the worst-case joint peak (peaks coinciding); the
denominator is the *actual* joint peak when the VMs share a server.  The
ratio is therefore a multiplexing-headroom factor:

* ``Cost == 1``   — peaks coincide (fully correlated); co-location saves
  nothing.
* ``Cost == 2``   — two equal-peak VMs that never peak together; a server
  provisioned for one peak carries both.
* in general (with peak references) ``1 <= Cost <= 2`` for any pair, by
  sub-additivity of the maximum — a property the test suite checks by
  construction and by hypothesis.

The *higher* the cost, the *less* correlated the pair and the more
attractive co-location is — note the deliberate inversion relative to
Pearson's coefficient.

Two implementations are provided.  :class:`CostMatrix` computes the
matrix exactly from a window of samples (what an offline study or test
wants).  :class:`StreamingCostMatrix` maintains the same quantities with
O(N^2) *array* work per sample and no sample buffer, which is the paper's
stated advantage over Pearson's correlation ("we can update the values at
each sampling period ... save memory space as well as evenly distributing
computational effort").  Both are backed by flat NumPy state — per-sample
cost is a handful of vectorized kernels, not N^2 Python calls — so fleets
of a thousand VMs stay in online-update territory.  The scalar estimators
in :mod:`repro.analysis.stats` remain the reference implementations the
property tests compare these kernels against.
"""

from __future__ import annotations

from types import MappingProxyType
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.stats import BatchPSquare, fold_marker_states, quantile_fold_fractions
from repro.traces.trace import ReferenceSpec, TraceSet

__all__ = [
    "CostMatrix",
    "StreamingCostMatrix",
    "RollingCostHorizon",
    "pearson_cost_matrix",
]

#: Neutral cost assigned to degenerate pairs (both VMs idle over the whole
#: window).  1.0 means "treat as fully correlated", the conservative choice:
#: the allocator then gains nothing from co-locating two idle VMs and the
#: v/f controller does not scale below their (zero) demand.
NEUTRAL_COST = 1.0

#: Size of the pair-sum scratch that :func:`_pair_sum_blocks` reuses for
#: every block (128K float64 or 256K float32 sums).  A block's sums stay
#: in a 2 MB per-core L2 cache between the add that writes them and the
#: reduction that reads them; a fresh tens-of-megabytes temporary per
#: block would stream through memory and page-fault on every allocation.
_SCRATCH_BYTES = 1024 * 1024

#: Element budget of one sample slice of the percentile
#: :meth:`StreamingCostMatrix.fold_window` (pairs x samples floats),
#: sized to keep its peak memory around 64 MB.
_SAMPLE_SLICE_ELEMENTS = 8_000_000


def _pair_cost(ref_i: float, ref_j: float, ref_joint: float) -> float:
    """Eqn 1 with the degenerate-denominator guard."""
    if ref_joint <= 0.0:
        return NEUTRAL_COST
    return (ref_i + ref_j) / ref_joint


def _cost_matrix_from_parts(singles: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """Eqn 1 applied element-wise to a joint-reference matrix.

    ``singles`` is the per-VM reference vector; ``joint`` the symmetric
    matrix of joint references.  Entries with a non-positive joint
    reference (both VMs idle) take :data:`NEUTRAL_COST`, as does the
    diagonal.  The numerator is divided in place in the one returned
    buffer; ``joint`` is only read (it may be a cached horizon part).
    """
    matrix = np.add.outer(singles, singles)
    positive = joint > 0.0
    np.divide(matrix, joint, out=matrix, where=positive)
    # Every other entry, NaN joints included, is a degenerate pair.
    np.copyto(matrix, NEUTRAL_COST, where=np.logical_not(positive, out=positive))
    np.fill_diagonal(matrix, NEUTRAL_COST)
    return matrix


def _symmetric_joint(singles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The symmetric N×N joint-reference matrix of condensed pair references.

    ``pairs`` holds the joint reference of pair ``(i, j > i)`` at
    ``i*n - i*(i+1)/2 + (j - i - 1)``, the ``np.triu_indices(n, 1)``
    order every horizon part is stored in; each row slice is written to
    its row and mirrored into its column, so no N² index arrays are
    built.  The diagonal is a VM's joint reference with itself, twice its
    own (Eqn 1 overwrites it with :data:`NEUTRAL_COST` either way).
    """
    n = singles.size
    joint = np.empty((n, n), dtype=float)
    joint.flat[:: n + 1] = 2.0 * singles
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        row = pairs[start:stop]
        joint[i, i + 1 :] = row
        joint[i + 1 :, i] = row
        start = stop
    return joint


def _store_condensed(condensed: np.ndarray, n: int, r0: int, c0: int, block: np.ndarray) -> None:
    """Copy the above-diagonal cells of a reduced pair block into their
    condensed rows.

    ``block`` covers rows ``r0..`` and columns ``c0..`` of the N×N pair
    grid.  Row ``i``'s pairs ``(i, j > i)`` are contiguous in condensed
    order: pair ``(i, j)`` sits at ``i*n - i*(i+1)/2 + (j - i - 1)``.
    """
    c1 = c0 + block.shape[1]
    for i in range(r0, r0 + block.shape[0]):
        lo = max(c0, i + 1)
        if lo < c1:
            offset = i * n - i * (i + 1) // 2 - i - 1
            condensed[offset + lo : offset + c1] = block[i - r0, lo - c0 :]


def _pair_map(mapping: np.ndarray, old_n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Old condensed index of each new pair ``(rows[k], cols[k])``.

    ``mapping[new] = old | -1`` (``-1`` marks a fresh VM); a pair that
    involves a fresh VM maps to ``-1``.
    """
    a = mapping[rows]
    b = mapping[cols]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    pair_map = lo * old_n - lo * (lo + 1) // 2 + (hi - lo - 1)
    pair_map[(a < 0) | (b < 0)] = -1
    return pair_map


def _fold_max(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise maximum of ``parts`` (the first part itself when alone)."""
    if len(parts) == 1:
        return parts[0]
    folded = np.maximum(parts[0], parts[1])
    for other in parts[2:]:
        np.maximum(folded, other, out=folded)
    return folded


def _seeded_gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]``, with ``-inf`` (the identity of the element-wise
    max fold) wherever ``index`` is ``-1``."""
    hit = index >= 0
    out = np.full(index.size, -np.inf)
    out[hit] = values[index[hit]]
    return out


def _build_index(names: Sequence[str]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


def _sorted_markers(sorted_rows: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Quantile markers gathered from already-sorted sample rows.

    ``sorted_rows`` is ``(..., samples)`` sorted along the last axis;
    the result is ``(..., len(fractions))`` with numpy's linear
    (interpolated) percentile convention, computed in the rows' dtype
    (float32 scratch stays float32).
    """
    samples = sorted_rows.shape[-1]
    position = fractions * (samples - 1)
    low = np.floor(position).astype(np.intp)
    high = np.minimum(low + 1, samples - 1)
    t = (position - low).astype(sorted_rows.dtype)
    one = sorted_rows.dtype.type(1.0)
    return sorted_rows[..., low] * (one - t) + sorted_rows[..., high] * t


def _pair_sum_blocks(data: np.ndarray, upper: bool = True):
    """Yield ``(r0, r1, c0, c1, sums)`` blocks of pairwise sample sums.

    ``sums[a, b]`` is ``data[r0 + a] + data[c0 + b]`` over all samples,
    shape ``(r1 - r0, c1 - c0, samples)``.  Row ``i`` is paired with
    columns ``i..n-1`` (``upper``, the diagonal included) or ``0..n-1``.
    Whole rows are batched while they fit :data:`_SCRATCH_BYTES`; a
    longer row is split into column blocks.  Every block is written
    into one scratch buffer, so ``sums`` is only valid until the next
    block is drawn — reduce it (or sort it in place) before moving on.
    """
    n, samples = data.shape
    budget = max(_SCRATCH_BYTES // data.itemsize, samples)
    scratch = np.empty(budget, dtype=data.dtype)
    r0 = 0
    while r0 < n:
        first = r0 if upper else 0
        row = max(1, (n - first) * samples)
        r1 = min(r0 + max(1, budget // row), n)
        width = n - first if row <= budget else budget // samples
        for c0 in range(first, n, width):
            c1 = min(c0 + width, n)
            sums = scratch[: (r1 - r0) * (c1 - c0) * samples].reshape(r1 - r0, c1 - c0, samples)
            np.add(data[r0:r1, None, :], data[None, c0:c1, :], out=sums)
            yield r0, r1, c0, c1, sums
        r0 = r1


class CostMatrix:
    """Exact pairwise correlation costs over a window of aligned traces.

    The matrix is symmetric with a unit diagonal (a VM is perfectly
    correlated with itself).  Entries are addressable by VM name or
    positional index; name lookups go through a prebuilt ``dict`` so
    :meth:`index_of` is O(1).
    """

    __slots__ = ("_names", "_references", "_matrix", "_spec", "_index")

    def __init__(
        self,
        names: Sequence[str],
        references: np.ndarray,
        matrix: np.ndarray,
        spec: ReferenceSpec,
    ) -> None:
        self._names = tuple(names)
        self._references = references
        self._matrix = matrix
        self._spec = spec
        self._index = _build_index(self._names)

    @classmethod
    def from_traces(cls, traces: TraceSet, spec: ReferenceSpec | None = None) -> CostMatrix:
        """Build the exact cost matrix from a :class:`TraceSet` window.

        Joint references are computed with a blocked broadcast over all
        pairs (no per-pair Python loop): each block of trace-pair sums is
        written into a cache-sized scratch and reduced with a single
        ``max`` (peak references) or ``percentile`` (off-peak references)
        pass (see :func:`_pair_sum_blocks`).
        """
        spec = spec or ReferenceSpec()
        refs, pairs = cls.reference_parts(traces, spec)
        joint = _symmetric_joint(refs, pairs)
        del pairs  # freed before the Eqn-1 assembly allocates its matrix
        return cls.from_parts(traces.names, refs, joint, spec)

    @classmethod
    def reference_parts(
        cls, traces: TraceSet, spec: ReferenceSpec | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The per-VM reference vector and the condensed joint references.

        These are the Eqn-1 inputs *before* the cost division: ``refs``
        is ``(n,)`` and ``pairs`` is the condensed upper triangle
        ``(n * (n - 1) / 2,)`` in ``np.triu_indices(n, 1)`` order, as in
        :meth:`marker_parts` (the joint matrix is symmetric, since
        ``x_i + x_j`` is ``x_j + x_i`` bit for bit).  Exposed separately
        because peak references decompose over window concatenation —
        ``max`` over ``W1 || W2`` is the element-wise ``max`` of the
        per-window reductions, exactly — which lets a rolling-horizon
        caller fold cached per-window parts instead of re-reducing the
        whole horizon every period (see :class:`RollingCostHorizon`).
        """
        spec = spec or ReferenceSpec()
        data = traces.matrix
        n = traces.num_traces
        refs = data.max(axis=1) if spec.is_peak else np.percentile(data, spec.percentile, axis=1)
        pairs = np.empty(n * (n - 1) // 2, dtype=float)
        for r0, _r1, c0, _c1, sums in _pair_sum_blocks(data):
            if spec.is_peak:
                block = sums.max(axis=2)
            else:
                block = np.percentile(sums, spec.percentile, axis=2)
            _store_condensed(pairs, n, r0, c0, block)
        return refs.astype(float), pairs

    @classmethod
    def marker_parts(
        cls, traces: TraceSet, spec: ReferenceSpec, fractions: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Compressed per-window percentile parts: quantile marker states.

        Percentile references do not decompose over window concatenation
        the way peaks do, but a window's *marker state* — its quantiles
        at the :func:`~repro.analysis.stats.quantile_fold_fractions`
        grid — folds across windows through
        :func:`~repro.analysis.stats.fold_marker_states` with a bounded,
        CI-gated error.  This is the percentile analogue of
        :meth:`reference_parts`: cache one marker state per window and
        fold the horizon instead of re-reducing it.

        Returns ``(single_markers, pair_markers, count)`` where
        ``single_markers`` is ``(n, m)``, ``pair_markers`` is condensed
        upper-triangle ``(n * (n - 1) / 2, m)`` in
        ``np.triu_indices(n, 1)`` order, and ``count`` is the window's
        sample count (the fold weight).  Each marker row is extracted
        from one sorted pass over the window's (pair-sum) samples, so the
        per-window cost is the same O(N²W)-shaped reduction the peak
        fast path pays — not the O(N²WH) horizon rebuild.

        Pair markers are stored as float32: the folding path is
        approximate by contract (the CI gate bounds its deviation at
        percent scale), the 1e-7-relative rounding is noise against
        that, and the narrower state halves both the per-window cache
        footprint and the fold's memory bandwidth at fleet scale.
        Single-VM markers stay float64 — there are only N of them.
        """
        if spec.is_peak:
            raise ValueError(
                "peak references fold exactly through reference_parts; "
                "marker parts are the percentile-mode folding state"
            )
        fractions = (
            quantile_fold_fractions(spec.percentile) if fractions is None else fractions
        )
        data = traces.matrix
        n = traces.num_traces
        samples = data.shape[1]
        single_markers = _sorted_markers(np.sort(data, axis=1), fractions)
        pair_markers = np.empty((n * (n - 1) // 2, fractions.size), dtype=np.float32)
        # Pair sums are reduced in float32 scratch: halves the bandwidth
        # of the dominant sort, with rounding far below the gated fold
        # error (see the docstring).
        narrow = data.astype(np.float32)
        for r0, _r1, c0, _c1, sums in _pair_sum_blocks(narrow):
            sums.sort(axis=2)
            _store_condensed(pair_markers, n, r0, c0, _sorted_markers(sums, fractions))
        return single_markers, pair_markers, samples

    @classmethod
    def from_parts(
        cls,
        names: Sequence[str],
        references: np.ndarray,
        joint: np.ndarray,
        spec: ReferenceSpec | None = None,
    ) -> CostMatrix:
        """Assemble a matrix from per-VM references and the symmetric
        N×N joint-reference matrix (only read)."""
        spec = spec or ReferenceSpec()
        refs = np.asarray(references, dtype=float)
        matrix = _cost_matrix_from_parts(refs, joint)
        matrix.flags.writeable = False
        return cls(tuple(names), refs, matrix, spec)

    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """VM names in positional order."""
        return self._names

    @property
    def name_index(self) -> Mapping[str, int]:
        """Read-only ``{name: positional index}`` map (the allocator's
        fast path consumes this together with :meth:`as_array`)."""
        return MappingProxyType(self._index)

    @property
    def spec(self) -> ReferenceSpec:
        """The reference-utilization policy the matrix was built with."""
        return self._spec

    @property
    def size(self) -> int:
        """Number of VMs covered."""
        return len(self._names)

    def index_of(self, name: str) -> int:
        """Positional index of a VM name."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no VM named {name!r} in the cost matrix") from None

    def reference(self, vm: str | int) -> float:
        """Reference utilization ``u_hat`` of one VM over the window."""
        index = self.index_of(vm) if isinstance(vm, str) else vm
        return float(self._references[index])

    def references(self) -> dict[str, float]:
        """All reference utilizations keyed by VM name."""
        return {name: float(ref) for name, ref in zip(self._names, self._references, strict=True)}

    def cost(self, a: str | int, b: str | int) -> float:
        """``Cost_vm(a, b)`` — Eqn 1 (1.0 on the diagonal)."""
        i = self.index_of(a) if isinstance(a, str) else a
        j = self.index_of(b) if isinstance(b, str) else b
        return float(self._matrix[i, j])

    def as_array(self) -> np.ndarray:
        """The full (read-only) symmetric cost matrix."""
        return self._matrix

    def mean_offdiagonal(self) -> float:
        """Average pairwise cost — a population de-correlation summary."""
        n = self.size
        if n < 2:
            return NEUTRAL_COST
        total = self._matrix.sum() - np.trace(self._matrix)
        return float(total / (n * (n - 1)))


class StreamingCostMatrix:
    """Online cost matrix updated one utilization vector at a time.

    All state is flat NumPy arrays, so one :meth:`update` is O(N^2)
    *array* element operations (a few vectorized kernels), not O(N^2)
    Python calls — with no sample buffer, which is precisely the
    efficiency argument of Section IV-A.

    * Peak references (the default): a vector running-max over the
      singles and an exact ``np.maximum(P, u[:, None] + u[None, :])``
      update on the N x N joint-peak array.  The streaming matrix is then
      *bit-exact* against :meth:`CostMatrix.from_traces` (a running
      maximum is lossless).
    * Percentile references: a :class:`~repro.analysis.stats.BatchPSquare`
      estimator over the N singles and another over the N(N-1)/2 pair
      sums, folding all pairs per sample in one masked-array pass.  The
      P-square approximation error is bounded by the property tests
      against the scalar reference implementation.
    """

    __slots__ = (
        "_names",
        "_spec",
        "_index",
        "_count",
        "_single_peak",
        "_pair_peak",
        "_single_est",
        "_pair_est",
        "_rows",
        "_cols",
        "_cache_count",
        "_single_cache",
        "_pair_cache",
    )

    def __init__(self, names: Sequence[str], spec: ReferenceSpec | None = None) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("VM names must be unique")
        self._names = names
        self._spec = spec or ReferenceSpec()
        self._index = _build_index(names)
        n = len(names)
        self._rows, self._cols = np.triu_indices(n, k=1)
        if self._spec.is_peak:
            self._single_peak = np.full(n, -np.inf)
            self._pair_peak = np.full((n, n), -np.inf)
            self._single_est = None
            self._pair_est = None
        else:
            q = self._spec.percentile
            self._single_peak = None
            self._pair_peak = None
            self._single_est = BatchPSquare(q, n) if n > 0 else None
            self._pair_est = BatchPSquare(q, len(self._rows)) if n > 1 else None
        self._count = 0
        self._cache_count = -1
        self._single_cache: np.ndarray | None = None
        self._pair_cache: np.ndarray | None = None

    @property
    def names(self) -> tuple[str, ...]:
        """VM names in positional order."""
        return self._names

    @property
    def name_index(self) -> Mapping[str, int]:
        """Read-only ``{name: positional index}`` map (the allocator's
        fast path consumes this together with :meth:`as_array`)."""
        return MappingProxyType(self._index)

    @property
    def spec(self) -> ReferenceSpec:
        """The reference-utilization policy."""
        return self._spec

    @property
    def count(self) -> int:
        """Number of utilization vectors folded in so far."""
        return self._count

    @property
    def size(self) -> int:
        """Number of VMs covered."""
        return len(self._names)

    def index_of(self, name: str) -> int:
        """Positional index of a VM name."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no VM named {name!r} in the cost matrix") from None

    def update(self, utilizations: Sequence[float] | np.ndarray) -> None:
        """Fold one per-VM utilization vector (positional order) in."""
        values = np.asarray(utilizations, dtype=float)
        if values.shape != (len(self._names),):
            raise ValueError(
                f"expected {len(self._names)} utilizations, got shape {values.shape}"
            )
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("utilizations must be finite and non-negative")
        if self._spec.is_peak:
            np.maximum(self._single_peak, values, out=self._single_peak)
            np.maximum(
                self._pair_peak, values[:, None] + values[None, :], out=self._pair_peak
            )
        else:
            if self._single_est is not None:
                self._single_est.update(values)
            if self._pair_est is not None:
                self._pair_est.update(values[self._rows] + values[self._cols])
        self._count += 1

    def extend(self, vectors: Iterable[Sequence[float]]) -> None:
        """Fold an iterable of utilization vectors in."""
        for vector in vectors:
            self.update(vector)

    def fold_window(self, window: np.ndarray) -> None:
        """Bulk-fold a whole ``(num_vms, num_samples)`` demand window in.

        Equivalent to calling :meth:`update` once per sample column —
        bit-exactly in peak mode (running maxima are associative; the
        pair reduction runs through a cache-sized scratch) and in lockstep
        in percentile mode (the batch estimators advance through
        :meth:`~repro.analysis.stats.BatchPSquare.fold_window`).  This is
        the period-boundary entry point: replay hands each finished
        monitoring window over in one call.
        """
        data = np.asarray(window, dtype=float)
        n = len(self._names)
        if data.ndim != 2 or data.shape[0] != n:
            raise ValueError(f"expected a ({n}, samples) window, got shape {data.shape}")
        if data.shape[1] == 0:
            return
        if np.any(data < 0) or not np.all(np.isfinite(data)):
            raise ValueError("utilizations must be finite and non-negative")
        samples = data.shape[1]
        if self._spec.is_peak:
            np.maximum(self._single_peak, data.max(axis=1), out=self._single_peak)
            for r0, r1, c0, c1, sums in _pair_sum_blocks(data, upper=False):
                peak = self._pair_peak[r0:r1, c0:c1]
                np.maximum(peak, sums.max(axis=2), out=peak)
        else:
            if self._single_est is not None:
                self._single_est.fold_window(data.T)
            if self._pair_est is not None:
                # Blocked over samples: the pair-sum scratch for a whole
                # window is (N(N-1)/2, W) — ~1 GB at N=1000 / W=240 —
                # so build and fold it a bounded slice at a time.
                pairs = self._rows.size
                step = max(1, _SAMPLE_SLICE_ELEMENTS // max(1, pairs))
                for start in range(0, samples, step):
                    chunk = data[:, start : start + step]
                    self._pair_est.fold_window((chunk[self._rows] + chunk[self._cols]).T)
        self._count += samples

    def add_vms(self, names: Sequence[str]) -> None:
        """Grow the matrix with new VMs, appended in positional order.

        Surviving entries are untouched: peak state for existing VMs and
        pairs is carried over bit-for-bit, and new rows/pairs start from
        the same empty state a fresh matrix would give them (``-inf``
        peaks; fresh P² warm-up buffers in percentile mode, seeded only
        for the *new* pairs).  Costs and references involving a VM added
        after the last :meth:`update`/:meth:`fold_window` are undefined
        (``-inf``/``NaN``) until the next fold supplies samples for it.
        """
        added = tuple(names)
        if not added:
            return
        if len(set(added)) != len(added):
            raise ValueError("VM names must be unique")
        present = [name for name in added if name in self._index]
        if present:
            raise ValueError(f"VMs already in the cost matrix: {present!r}")
        old_n = len(self._names)
        mapping = np.concatenate(
            [
                np.arange(old_n, dtype=np.intp),
                np.full(len(added), -1, dtype=np.intp),
            ]
        )
        self._remap(self._names + added, mapping)

    def remove_vms(self, names: Sequence[str]) -> None:
        """Shrink the matrix, dropping the given VMs.

        Surviving VMs keep their relative positional order and their
        full streaming state (peaks or P² markers) untouched; only the
        departed rows, columns and pairs are discarded.
        """
        removed = tuple(names)
        if not removed:
            return
        unknown = [name for name in removed if name not in self._index]
        if unknown:
            raise KeyError(f"no VMs named {unknown!r} in the cost matrix")
        removed_set = set(removed)
        keep = np.asarray(
            [i for i, name in enumerate(self._names) if name not in removed_set],
            dtype=np.intp,
        )
        self._remap(tuple(self._names[i] for i in keep), keep)

    def _remap(self, new_names: tuple[str, ...], mapping: np.ndarray) -> None:
        """Rebuild positional state under ``mapping[new] = old | -1``.

        ``-1`` marks a fresh (just-added) VM.  All caches are dropped;
        the matrix-level sample count is *not* reset — it is the update
        clock shared by the surviving streams.
        """
        old_n = len(self._names)
        m = len(new_names)
        self._names = new_names
        self._index = _build_index(new_names)
        self._rows, self._cols = np.triu_indices(m, k=1)
        surviving = np.flatnonzero(mapping >= 0)
        old_idx = mapping[surviving]
        if self._spec.is_peak:
            single = np.full(m, -np.inf)
            single[surviving] = self._single_peak[old_idx]
            pair = np.full((m, m), -np.inf)
            pair[np.ix_(surviving, surviving)] = self._pair_peak[np.ix_(old_idx, old_idx)]
            self._single_peak = single
            self._pair_peak = pair
        else:
            q = self._spec.percentile
            if m == 0:
                self._single_est = None
                self._pair_est = None
            else:
                if self._single_est is None:
                    self._single_est = BatchPSquare(q, m)
                else:
                    self._single_est.remap_streams(mapping)
                if m < 2:
                    self._pair_est = None
                elif self._pair_est is None:
                    # No surviving pairs exist (the old matrix had < 2
                    # VMs), so every pair stream starts fresh.
                    self._pair_est = BatchPSquare(q, self._rows.size)
                else:
                    self._pair_est.remap_streams(
                        _pair_map(mapping, old_n, self._rows, self._cols)
                    )
        self._cache_count = -1
        self._single_cache = None
        self._pair_cache = None

    def to_cost_matrix(self) -> CostMatrix:
        """Freeze the current estimates into an immutable :class:`CostMatrix`.

        The references are copied, so the snapshot stays valid while the
        streaming estimators keep advancing.
        """
        if self._count == 0:
            raise ValueError("no samples observed yet")
        singles = np.array(self._single_values(), dtype=float)
        return CostMatrix.from_parts(self._names, singles, self._joint_matrix(), self._spec)

    def _refresh_cache(self) -> None:
        """Re-materialise the percentile estimates at the current count.

        ``BatchPSquare.values`` copies all stream estimates; caching the
        copy per update count keeps per-pair :meth:`cost` /
        :meth:`reference` lookups O(1) between updates instead of
        O(N^2) per call.
        """
        if self._cache_count == self._count:
            return
        self._single_cache = (
            self._single_est.values
            if self._single_est is not None
            else np.zeros(0, dtype=float)
        )
        self._pair_cache = self._pair_est.values if self._pair_est is not None else None
        self._cache_count = self._count

    def _single_values(self) -> np.ndarray:
        if self._spec.is_peak:
            return self._single_peak
        self._refresh_cache()
        return self._single_cache

    def _joint_matrix(self) -> np.ndarray:
        """The symmetric matrix of current joint-reference estimates."""
        if self._spec.is_peak:
            return self._pair_peak
        n = len(self._names)
        joint = np.zeros((n, n), dtype=float)
        if self._pair_est is not None:
            self._refresh_cache()
            joint[self._rows, self._cols] = self._pair_cache
            joint[self._cols, self._rows] = self._pair_cache
        return joint

    def reference(self, vm: str | int) -> float:
        """Current streaming estimate of ``u_hat`` for one VM."""
        index = self.index_of(vm) if isinstance(vm, str) else vm
        if self._count == 0:
            raise ValueError("no samples observed yet")
        return float(self._single_values()[index])

    def references(self) -> dict[str, float]:
        """All current reference estimates keyed by VM name."""
        if self._count == 0:
            raise ValueError("no samples observed yet")
        values = self._single_values()
        return {name: float(values[i]) for i, name in enumerate(self._names)}

    def cost(self, a: str | int, b: str | int) -> float:
        """Current streaming estimate of ``Cost_vm(a, b)``."""
        i = self.index_of(a) if isinstance(a, str) else a
        j = self.index_of(b) if isinstance(b, str) else b
        if i == j:
            return NEUTRAL_COST
        if self._count == 0:
            raise ValueError("no samples observed yet")
        singles = self._single_values()
        if self._spec.is_peak:
            joint = float(self._pair_peak[i, j])
        else:
            lo, hi = (i, j) if i < j else (j, i)
            n = len(self._names)
            # Condensed upper-triangle index of the unordered pair.
            k = lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)
            self._refresh_cache()
            joint = float(self._pair_cache[k])
        return _pair_cost(float(singles[i]), float(singles[j]), joint)

    def as_array(self) -> np.ndarray:
        """Materialise the current estimates as a symmetric array."""
        n = len(self._names)
        if n == 0:
            return np.zeros((0, 0), dtype=float)
        if n == 1:
            return np.full((1, 1), NEUTRAL_COST, dtype=float)
        if self._count == 0:
            raise ValueError("no samples observed yet")
        return _cost_matrix_from_parts(
            np.asarray(self._single_values(), dtype=float), self._joint_matrix()
        )

    def reset(self) -> None:
        """Forget all samples (e.g. at a placement-period boundary)."""
        if self._spec.is_peak:
            self._single_peak.fill(-np.inf)
            self._pair_peak.fill(-np.inf)
        else:
            if self._single_est is not None:
                self._single_est.reset()
            if self._pair_est is not None:
                self._pair_est.reset()
        self._count = 0
        self._cache_count = -1
        self._single_cache = None
        self._pair_cache = None

    def snapshot(self) -> dict:
        """Serializable copy of the full streaming state.

        Fresh array copies / estimator snapshots only — the returned
        dict pickles cleanly and survives mutation of the live matrix.
        Caches are derived state and deliberately not captured.
        """
        return {
            "names": self._names,
            "spec": self._spec,
            "count": self._count,
            "single_peak": None if self._single_peak is None else self._single_peak.copy(),
            "pair_peak": None if self._pair_peak is None else self._pair_peak.copy(),
            "single_est": None if self._single_est is None else self._single_est.snapshot(),
            "pair_est": None if self._pair_est is None else self._pair_est.snapshot(),
        }

    def restore(self, state: Mapping) -> None:
        """Reinstall a :meth:`snapshot` taken from an identical config."""
        if tuple(state["names"]) != self._names or state["spec"] != self._spec:
            raise ValueError(
                "snapshot was taken for a different VM set or reference spec"
            )
        count = int(state["count"])
        if count < 0:
            raise ValueError("snapshot count must be non-negative")
        if self._spec.is_peak:
            for key, target in (("single_peak", self._single_peak),
                                ("pair_peak", self._pair_peak)):
                array = np.asarray(state[key], dtype=float)
                if array.shape != target.shape:
                    raise ValueError(f"snapshot {key!r} must have shape {target.shape}")
                target[...] = array
        else:
            if self._single_est is not None:
                self._single_est.restore(state["single_est"])
            if self._pair_est is not None:
                self._pair_est.restore(state["pair_est"])
        self._count = count
        self._cache_count = -1
        self._single_cache = None
        self._pair_cache = None


class RollingCostHorizon:
    """Per-period Eqn-1 cost matrices over a rolling multi-window horizon.

    Section IV-A measures correlation "across a certain time horizon";
    the proposed approach estimates its cost matrix over the last
    ``horizon_periods`` monitoring windows.  This tracker owns the
    per-window caching that keeps the per-period cost at one window's
    worth of reduction instead of a whole-horizon rebuild:

    * **Peak references** (any mode): each window's
      :meth:`CostMatrix.reference_parts` (per-VM references and condensed
      pair references) are cached and folded with element-wise maxima —
      *bit-exact* against rebuilding the concatenated horizon, because
      peaks decompose over concatenation.
    * **Percentile references, ``mode="exact"``**: percentiles do not
      decompose, so the raw windows are kept in a preallocated ring
      buffer and the joint matrix is rebuilt from the concatenation
      every period (O(N²WH)) — the reference behaviour.
    * **Percentile references, ``mode="p2"``**: each window is compressed
      to its quantile *marker states* (:meth:`CostMatrix.marker_parts`,
      P-square-style summaries on the
      :func:`~repro.analysis.stats.quantile_fold_fractions` grid) and the
      horizon estimate is their count-weighted mixture-CDF fold
      (:func:`~repro.analysis.stats.fold_marker_states`) — O(N²W) per
      period like the peak path, *approximate but CI-gated*: the
      per-entry deviation from the exact rebuild is bounded by the
      equivalence tests and the ``horizon_percentile`` benchmark gate.

    Both folding modes store pair state as condensed upper triangles and
    expand the folded result into the symmetric N×N joint once per
    period.  Once the horizon is full, the oldest part is evicted before
    the new window is reduced, so a push holds ``horizon_periods`` parts,
    never one more.

    A change in the member names (or window geometry, in exact mode)
    restarts the horizon from the incoming window alone — cached parts
    from a different population must never fold into the estimate.
    """

    __slots__ = (
        "_spec",
        "_periods",
        "_mode",
        "_fractions",
        "_target",
        "_names",
        "_parts",
        "_marker_parts",
        "_buffer",
        "_filled",
    )

    def __init__(
        self,
        spec: ReferenceSpec | None = None,
        horizon_periods: int = 3,
        mode: str = "exact",
    ) -> None:
        if horizon_periods < 1:
            raise ValueError("horizon_periods must be at least 1")
        if mode not in ("exact", "p2"):
            raise ValueError(f'horizon mode must be "exact" or "p2", got {mode!r}')
        self._spec = spec or ReferenceSpec()
        self._periods = horizon_periods
        self._mode = mode
        if self._spec.is_peak:
            self._fractions = None
            self._target = 0
        else:
            self._fractions = quantile_fold_fractions(self._spec.percentile)
            self._target = int(
                np.argmin(np.abs(self._fractions - self._spec.percentile / 100.0))
            )
        self._names: tuple[str, ...] | None = None
        # Peak mode: cached per-window (refs, condensed pairs) reference parts.
        self._parts: list[tuple[np.ndarray, np.ndarray]] = []
        # p2 mode: cached per-window (single, pair, count) marker states.
        self._marker_parts: list[tuple[np.ndarray, np.ndarray, int]] = []
        # Exact percentile mode: preallocated raw-sample ring buffer,
        # ``horizon_periods`` windows wide, filled left to right and
        # shifted in place once full.
        self._buffer: np.ndarray | None = None
        self._filled = 0

    @property
    def spec(self) -> ReferenceSpec:
        """The reference-utilization policy."""
        return self._spec

    @property
    def horizon_periods(self) -> int:
        """Number of windows the rolling horizon covers."""
        return self._periods

    @property
    def mode(self) -> str:
        """``"exact"`` or ``"p2"`` (percentile folding)."""
        return self._mode

    def push(self, window: TraceSet) -> CostMatrix:
        """Fold one finished monitoring window in; return the horizon matrix."""
        if self._periods == 1:
            return CostMatrix.from_traces(window, self._spec)
        if self._spec.is_peak:
            return self._push_peak(window)
        if self._mode == "p2":
            return self._push_markers(window)
        return CostMatrix.from_traces(self._concatenated(window), self._spec)

    def _make_room(self, parts: list, names: tuple[str, ...]) -> None:
        """Ready ``parts`` for the next window's part.

        A new population restarts the horizon; otherwise, once the
        horizon is full, the oldest part goes *before* the new window is
        reduced.  The window has already been validated, so the
        reduction cannot fail on its values.
        """
        if self._names != names:
            self._names = names
            parts.clear()
        del parts[: max(0, len(parts) + 1 - self._periods)]

    def _push_peak(self, window: TraceSet) -> CostMatrix:
        """Fold cached per-window reference parts (bit-exact for peaks)."""
        self._make_room(self._parts, window.names)
        self._parts.append(CostMatrix.reference_parts(window, self._spec))
        refs = _fold_max([part[0] for part in self._parts])
        # The folded pairs are a temporary of this call: freed once the
        # joint is built, before the Eqn-1 assembly allocates its matrix.
        joint = _symmetric_joint(refs, _fold_max([part[1] for part in self._parts]))
        return CostMatrix.from_parts(window.names, refs, joint, self._spec)

    def _push_markers(self, window: TraceSet) -> CostMatrix:
        """Fold cached per-window marker states (approximate, gated)."""
        parts = self._marker_parts
        self._make_room(parts, window.names)
        parts.append(CostMatrix.marker_parts(window, self._spec, self._fractions))
        if len(parts) == 1:
            singles, pairs, _count = parts[0]
            refs = singles[:, self._target].copy()
            joint = _symmetric_joint(refs, pairs[:, self._target])
        else:
            q = self._spec.percentile
            counts = np.array([part[2] for part in parts], dtype=float)
            # Lists, not stacks: the fold reads each state a stream chunk
            # at a time.
            refs = fold_marker_states([part[0] for part in parts], counts, q, self._fractions)
            joint = _symmetric_joint(
                refs,
                fold_marker_states([part[1] for part in parts], counts, q, self._fractions),
            )
        return CostMatrix.from_parts(window.names, refs, joint, self._spec)

    def _concatenated(self, window: TraceSet) -> TraceSet:
        """The last ``horizon_periods`` raw windows, concatenated."""
        incoming = window.matrix
        num_vms, width = incoming.shape
        capacity = self._periods * width
        buffer = self._buffer
        if (
            buffer is None
            or buffer.shape != (num_vms, capacity)
            or self._names != window.names
        ):
            # First period, or the population/window geometry changed:
            # (re)start the horizon from this window alone.
            buffer = np.empty((num_vms, capacity), dtype=float)
            self._buffer = buffer
            self._filled = 0
            self._names = window.names
        if self._filled == capacity:
            buffer[:, :-width] = buffer[:, width:]
            buffer[:, -width:] = incoming
        else:
            buffer[:, self._filled : self._filled + width] = incoming
            self._filled += width
        if self._filled == width:
            return window
        joined = buffer[:, : self._filled].copy()
        joined.flags.writeable = False
        return TraceSet.from_matrix(joined, window.names, window.period_s)

    def apply_membership(
        self, added: Sequence[str] = (), removed: Sequence[str] = ()
    ) -> None:
        """Adjust the cached horizon to a membership delta in place.

        The next window is expected to carry the surviving VMs in their
        current relative order with arrivals appended at the end; this
        method rewrites the cached per-window state to that layout so
        the horizon *folds* across the membership change instead of
        restarting from scratch:

        * **Peak parts**: exact for both directions.  Departed VMs and
          their pairs are dropped; arrivals and their pairs are seeded
          at ``-inf``, which is the identity of the element-wise-max
          fold, so a newcomer simply contributes nothing before its
          first window.
        * **Percentile state (exact ring / p2 markers)**: removals
          shrink the cached samples/markers exactly (percentile of a
          row subset is unaffected by dropped rows).  Arrivals restart
          the percentile horizon: a percentile over the horizon needs
          the newcomer's samples across *all* cached windows, and those
          samples do not exist — unlike peaks, there is no fold
          identity that makes the missing history harmless.

        If the next pushed window carries a different name tuple than
        the one this delta predicts, the existing population-change
        guard in :meth:`push` restarts the horizon — correctness never
        depends on the caller honoring the layout convention.
        """
        added = tuple(added)
        removed_set = set(removed)
        if self._names is None or (not added and not removed_set):
            return
        # Unknown removals are harmless no-ops (a VM admitted and
        # retired between pushes never entered the cached state).
        removed_set.intersection_update(self._names)
        if not added and not removed_set:
            return
        collide = [name for name in added if name in self._names and name not in removed_set]
        if collide:
            raise ValueError(f"VMs already in the horizon: {collide!r}")
        keep = np.asarray(
            [i for i, name in enumerate(self._names) if name not in removed_set],
            dtype=np.intp,
        )
        survivors = tuple(self._names[i] for i in keep)
        new_names = survivors + added
        if not new_names:
            self.reset()
            return
        old_n = len(self._names)
        m = len(new_names)
        if self._spec.is_peak or self._mode == "p2":
            if added:
                self._marker_parts.clear()
            if self._parts or self._marker_parts:
                mapping = np.full(m, -1, dtype=np.intp)
                mapping[: keep.size] = keep
                pair_map = _pair_map(mapping, old_n, *np.triu_indices(m, k=1))
                self._parts = [
                    (_seeded_gather(refs, mapping), _seeded_gather(pairs, pair_map))
                    for refs, pairs in self._parts
                ]
                self._marker_parts = [
                    (single[keep], pair[pair_map], count)
                    for single, pair, count in self._marker_parts
                ]
        else:
            if added:
                self._buffer = None
                self._filled = 0
            elif self._buffer is not None and keep.size != old_n:
                self._buffer = np.ascontiguousarray(self._buffer[keep])
        self._names = new_names

    def reset(self) -> None:
        """Drop all cached windows and parts (fresh replay)."""
        self._names = None
        self._parts.clear()
        self._marker_parts.clear()
        self._buffer = None
        self._filled = 0

    def snapshot(self) -> dict:
        """Serializable copy of the horizon ring (all three modes)."""
        return {
            "spec": self._spec,
            "periods": self._periods,
            "mode": self._mode,
            "names": self._names,
            "parts": [(refs.copy(), joint.copy()) for refs, joint in self._parts],
            "marker_parts": [
                (single.copy(), pair.copy(), int(count))
                for single, pair, count in self._marker_parts
            ],
            "buffer": None if self._buffer is None else self._buffer.copy(),
            "filled": self._filled,
        }

    def restore(self, state: Mapping) -> None:
        """Reinstall a :meth:`snapshot` taken from an identical config."""
        if (
            state["spec"] != self._spec
            or state["periods"] != self._periods
            or state["mode"] != self._mode
        ):
            raise ValueError(
                "snapshot was taken under a different horizon configuration"
            )
        filled = int(state["filled"])
        if filled < 0:
            raise ValueError("snapshot filled count must be non-negative")
        # Every array is copied AND dtype/layout-normalized: a restored
        # horizon must re-snapshot to the same bytes as a never-restored
        # twin even when the snapshot crossed a serializer that widened
        # or narrowed dtypes (the sharded-restore bug of the same shape).
        names = None if state["names"] is None else tuple(state["names"])
        parts = [
            (np.array(refs, dtype=float), np.array(pairs, dtype=float))
            for refs, pairs in state["parts"]
        ]
        marker_parts = [
            (np.array(single, dtype=float), np.array(pair, dtype=np.float32), int(count))
            for single, pair, count in state["marker_parts"]
        ]
        # Each cached part must cover exactly the snapshot's names: a part
        # of another layout (e.g. an N×N joint) would otherwise fail deep
        # inside a later fold.
        n = 0 if names is None else len(names)
        num_pairs = n * (n - 1) // 2
        markers = 0 if self._fractions is None else self._fractions.size
        if any(
            refs.shape != (n,) or pairs.shape != (num_pairs,) for refs, pairs in parts
        ) or any(
            single.shape != (n, markers) or pair.shape != (num_pairs, markers)
            for single, pair, _count in marker_parts
        ):
            raise ValueError("snapshot horizon parts do not match its names")
        self._names = names
        self._parts = parts
        self._marker_parts = marker_parts
        self._buffer = (
            None if state["buffer"] is None else np.array(state["buffer"], dtype=float)
        )
        self._filled = filled


def pearson_cost_matrix(traces: TraceSet) -> np.ndarray:
    """Pearson correlation matrix over a trace window.

    Contract with the metric ablation
    (:func:`repro.experiments.ablations.pearson_dense_costs`): this
    returns the *raw* coefficient matrix (unit diagonal, ``rho`` in
    ``[-1, 1]``, exactly symmetric); the ablation maps it onto the Eqn-1
    cost scale with any rank-preserving transform (low correlation = high
    cost), so only the rank order of the entries matters.  Degenerate
    (constant) traces correlate at 0 off-diagonal by convention, matching
    :func:`repro.analysis.stats.pearson`.
    """
    data = traces.matrix
    n = traces.num_traces
    if n > 1 and data.shape[1] < 2:
        raise ValueError("need at least two samples for a correlation")
    centred = data - data.mean(axis=1, keepdims=True)
    degenerate = (centred * centred).sum(axis=1) == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        matrix = np.corrcoef(data) if n > 1 else np.ones((1, 1), dtype=float)
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    matrix[degenerate, :] = 0.0
    matrix[:, degenerate] = 0.0
    # corrcoef divides by the two deviations in opposite orders, so [i, j]
    # and [j, i] can differ in the last bit; mirror the upper triangle.
    lower = np.tril_indices(n, -1)
    matrix[lower] = matrix.T[lower]
    np.fill_diagonal(matrix, 1.0)
    return matrix
