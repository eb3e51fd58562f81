"""Hierarchical sharded allocation: the 100k-VM tier.

Every other allocation path materializes the full N×N Eqn-1 cost matrix,
which caps the paper's placement far below datacenter scale (~80 GB at
N=100k in float64).  This module exploits the paper's own observation —
most pairwise correlation mass lives *within* clusters of similar VMs —
to place hundreds of thousands of VMs on one box without ever building
a global matrix:

1. **Cluster by correlation signature.**  Each VM is reduced to a small
   feature vector (normalized segment-mean profile, normalized
   :meth:`~repro.analysis.stats.BatchPSquare.marker_state` quantile
   markers, peak-to-mean ratio); a seeded k-means groups VMs whose
   demand moves together, and clusters beyond the ``max_shard_fill``
   size cap are split.  O(N·W) — no pairwise work.
2. **Allocate exactly per shard.**  Each shard runs the existing dense
   fast path (:class:`~repro.core.allocation.CorrelationAwareAllocator`
   over a shard-local :class:`~repro.core.correlation.CostMatrix`), so
   intra-shard decisions are bit-for-bit the paper's Fig-2 procedure.
   Per-shard matrices are O((N/S)²) — bounded by the shard-size cap.

This is the repository's second *approximate-but-gated* feature (after
``horizon_mode="p2"``): sharded placements are not bit-identical to the
exact allocator above one shard, so their deviation is bounded by a
committed constant (:data:`ENERGY_DEVIATION_BOUND`), enforced by the
randomized oracle harness in ``tests/test_sharding.py`` and the
``allocate_sharded`` gate in ``benchmarks/bench_scaling.py``.  Two exact
anchors hold regardless of configuration:

* ``num_shards=1`` degenerates to the exact allocator, bit-identically
  (same cost values, same canonical packing order).
* All signature and clustering computation happens in *canonical*
  (name-sorted) VM order, so placements are invariant under
  permutations of the input window.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import BatchPSquare
from repro.core.allocation import (
    AllocationConfig,
    CapacityError,
    CorrelationAwareAllocator,
)
from repro.core.correlation import NEUTRAL_COST, CostMatrix
from repro.core.placement import Placement
from repro.core.server_cost import prospective_server_cost
from repro.core.vf_control import correlation_aware_frequency
from repro.infrastructure.dvfs import FrequencyLadder
from repro.traces.trace import ReferenceSpec, TraceSet

__all__ = [
    "ENERGY_DEVIATION_BOUND",
    "ShardedAllocator",
    "ShardedCostView",
    "ShardingConfig",
    "placement_energy_proxy",
    "shard_population",
]

#: Committed bound on the relative static-energy-proxy deviation of a
#: sharded placement vs the exact allocator on the same instance
#: (measured with :func:`placement_energy_proxy` under the *exact* cost
#: matrix).  Enforced at N≤2000 by ``tests/test_sharding.py`` and the
#: ``allocate_sharded`` bench gate; tightening it is a contract change.
ENERGY_DEVIATION_BOUND = 0.10


def _require_number(value, name: str, *, minimum: float, integral: bool = False):
    """NaN-safe numeric field validation (mirrors ``ManagerConfig``)."""
    try:
        numeric = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number >= {minimum}, got {value!r}") from None
    if not math.isfinite(numeric) or numeric < minimum:
        raise ValueError(f"{name} must be a finite number >= {minimum}, got {value!r}")
    if integral:
        if numeric != int(numeric):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(numeric)
    return numeric


@dataclass(frozen=True)
class ShardingConfig:
    """Knobs of the two-level sharded allocation scheme.

    Parameters
    ----------
    num_shards:
        Shard count; ``None`` sizes it as ``ceil(N / target_shard_vms)``.
    target_shard_vms:
        Intended shard population when ``num_shards`` is automatic; the
        per-shard dense matrices are O(``target_shard_vms``²).
    signature_segments:
        Time segments in the correlation-signature profile (clamped to
        the window length).
    signature_quantile:
        Interior percentile (0, 100) tracked by the per-VM marker states.
    cluster_iterations:
        Lloyd iterations of the seeded k-means.
    max_shard_fill:
        Hard cap on any shard's population, as a multiple of the mean
        ``N / num_shards`` — bounds the worst-case per-shard O(n²) work;
        oversized clusters are split deterministically.
    consolidation_patience:
        The stitched placement inherits up to one under-filled tail bin
        per shard; a cross-shard consolidation pass dissolves such bins
        (emptiest first, all-or-nothing, best-fit-decreasing into the
        survivors) and stops after this many consecutive bins that
        cannot be dissolved.  ``0`` disables the pass.  Never runs on a
        single-shard plan, which stays bit-identical to the exact
        allocator.
    seed:
        Seed of the k-means initialisation (the only stochastic step).
    """

    num_shards: int | None = None
    target_shard_vms: int = 256
    signature_segments: int = 8
    signature_quantile: float = 90.0
    cluster_iterations: int = 8
    max_shard_fill: float = 2.0
    consolidation_patience: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards is not None:
            object.__setattr__(
                self,
                "num_shards",
                _require_number(self.num_shards, "num_shards", minimum=1, integral=True),
            )
        for name, minimum in (
            ("target_shard_vms", 1),
            ("signature_segments", 1),
            ("cluster_iterations", 1),
            ("consolidation_patience", 0),
            ("seed", 0),
        ):
            value = _require_number(getattr(self, name), name, minimum=minimum, integral=True)
            object.__setattr__(self, name, value)
        object.__setattr__(
            self,
            "max_shard_fill",
            _require_number(self.max_shard_fill, "max_shard_fill", minimum=1.0),
        )
        quantile = _require_number(
            self.signature_quantile, "signature_quantile", minimum=0.0
        )
        if not 0.0 < quantile < 100.0:
            raise ValueError(
                f"signature_quantile must lie strictly inside (0, 100), got {quantile}"
            )
        object.__setattr__(self, "signature_quantile", quantile)

    def resolve_num_shards(self, population: int) -> int:
        """The effective shard count for ``population`` VMs."""
        if population < 1:
            raise ValueError("population must be positive")
        if self.num_shards is not None:
            return min(self.num_shards, population)
        return min(population, max(1, math.ceil(population / self.target_shard_vms)))


# --------------------------------------------------------------------------
# canonical-order helpers (all private helpers take canon-ordered arrays)


def _canonical_order(names: Sequence[str]) -> np.ndarray:
    """Indices sorting ``names`` lexicographically (the canonical order)."""
    return np.argsort(np.asarray(names, dtype=object), kind="stable")


def _segment_edges(num_samples: int, segments: int) -> np.ndarray:
    """Strictly increasing segment boundaries over ``num_samples``."""
    count = min(int(segments), int(num_samples))
    return (np.arange(count + 1, dtype=np.intp) * num_samples) // count


def _signature_features(data: np.ndarray, config: ShardingConfig) -> np.ndarray:
    """Per-VM correlation signatures ``(N, F)`` from a canon-ordered demand matrix."""
    num_vms, num_samples = data.shape
    edges = _segment_edges(num_samples, config.signature_segments)
    widths = np.diff(edges).astype(float)
    profile = np.add.reduceat(data, edges[:-1], axis=1) / widths
    mean = data.mean(axis=1)
    peak = data.max(axis=1)

    estimator = BatchPSquare(config.signature_quantile, num_vms)
    estimator.fold_window(np.ascontiguousarray(data.T))
    heights, _count = estimator.marker_state()

    mean_scale = np.where(mean > 0.0, mean, 1.0)
    peak_scale = np.where(peak > 0.0, peak, 1.0)
    features = np.concatenate(
        [
            profile / mean_scale[:, None],
            heights / peak_scale[:, None],
            (peak / mean_scale)[:, None],
        ],
        axis=1,
    )
    center = features.mean(axis=0)
    spread = features.std(axis=0)
    return (features - center) / np.where(spread > 0.0, spread, 1.0)


def _pairwise_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances ``(n_points, n_centers)``."""
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    c2 = np.einsum("ij,ij->i", centers, centers)[None, :]
    return np.maximum(p2 - 2.0 * (points @ centers.T) + c2, 0.0)


def _cluster(features: np.ndarray, k: int, config: ShardingConfig) -> np.ndarray:
    """Seeded Lloyd k-means over signature features (labels, canon order)."""
    num_vms = features.shape[0]
    if k >= num_vms:
        return np.arange(num_vms, dtype=np.intp)
    rng = np.random.default_rng(config.seed)
    centers = features[np.sort(rng.choice(num_vms, size=k, replace=False))].copy()
    labels = np.zeros(num_vms, dtype=np.intp)
    for _ in range(config.cluster_iterations):
        distances = _pairwise_sq(features, centers)
        labels = distances.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # Re-seed empty clusters at the points farthest from their
            # centers (deterministic; donors must not empty in turn).
            own = distances[np.arange(num_vms), labels]
            order = np.argsort(-own, kind="stable")
            cursor = 0
            for empty in empties:
                while counts[labels[order[cursor]]] <= 1:
                    cursor += 1
                point = order[cursor]
                counts[labels[point]] -= 1
                labels[point] = empty
                counts[empty] = 1
                cursor += 1
        sums = np.zeros((k, features.shape[1]))
        np.add.at(sums, labels, features)
        counts = np.bincount(labels, minlength=k).astype(float)
        centers = sums / counts[:, None]
    return labels


def _relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    """Renumber labels by first occurrence (drops empty label ids)."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return rank[inverse].astype(np.intp)


def _shard_size_cap(num_vms: int, num_shards: int, config: ShardingConfig) -> int:
    """Hard per-shard population cap (bounds per-shard O(n²) work)."""
    return max(1, math.ceil(config.max_shard_fill * num_vms / num_shards))


def _split_oversized(labels: np.ndarray, cap: int) -> np.ndarray:
    """Split shards beyond ``cap`` members into canon-order chunks."""
    labels = labels.copy()
    next_label = int(labels.max()) + 1
    for shard in range(next_label):
        members = np.flatnonzero(labels == shard)
        if members.size <= cap:
            continue
        for start in range(cap, members.size, cap):
            labels[members[start : start + cap]] = next_label
            next_label += 1
    return _relabel_first_occurrence(labels)


def _compute_labels(data: np.ndarray, config: ShardingConfig) -> np.ndarray:
    """Full canon-order sharding: signatures → k-means → size cap."""
    num_vms = data.shape[0]
    k = config.resolve_num_shards(num_vms)
    if k <= 1:
        return np.zeros(num_vms, dtype=np.intp)
    labels = _relabel_first_occurrence(_cluster(_signature_features(data, config), k, config))
    cap = _shard_size_cap(num_vms, int(labels.max()) + 1, config)
    return _split_oversized(labels, cap)


def shard_population(window: TraceSet, config: ShardingConfig | None = None) -> np.ndarray:
    """Shard labels for ``window`` (aligned to ``window.names`` order).

    The public probe for tests and notebooks: labels are computed in
    canonical (name-sorted) VM order internally, so a permuted window
    yields identically sharded VMs.
    """
    config = config or ShardingConfig()
    order = _canonical_order(window.names)
    out = np.empty(len(window.names), dtype=np.intp)
    out[order] = _compute_labels(window.matrix[order], config)
    return out


# --------------------------------------------------------------------------
# the allocator


def _consolidate_bins(
    assignment: dict[str, int],
    refs: Mapping[str, float],
    capacity: float,
    patience: int,
) -> dict[str, int]:
    """Dissolve under-filled bins across shards (in place, then renumber).

    Each shard's exact allocator leaves at most one partially-filled
    tail bin; stitched over k shards that is up to k fragmented servers
    the exact allocator would never have opened — the dominant term of
    the sharded tier's energy deviation at small N.  This pass visits
    bins emptiest-first and moves a bin's VMs (descending demand, then
    name) into the best-fit survivors, all-or-nothing: a bin whose
    members cannot *all* be re-placed without overcommit is kept intact.
    ``patience`` consecutive failed dissolutions end the pass.

    Deterministic and order-free: bins are keyed by server index,
    members and targets are tie-broken by name / lowest index, so the
    result inherits the plan's permutation invariance.  Returns a
    renumbered (dense ``[0, used_bins)``) copy of ``assignment``.
    """
    bins: dict[int, list[str]] = {}
    for vm in sorted(assignment):
        bins.setdefault(assignment[vm], []).append(vm)
    if patience > 0 and len(bins) > 1:
        ids = np.array(sorted(bins), dtype=np.intp)
        position = {int(server): i for i, server in enumerate(ids)}
        remaining = np.array(
            [capacity - sum(refs[vm] for vm in bins[int(server)]) for server in ids]
        )
        victims = sorted(bins, key=lambda server: (-remaining[position[server]], server))
        misses = 0
        for victim in victims:
            if misses >= patience:
                break
            movers = sorted(bins[victim], key=lambda vm: (-refs[vm], vm))
            trial = remaining.copy()
            trial[position[victim]] = -np.inf  # never its own target
            moves: list[tuple[str, int]] = []
            feasible = True
            for vm in movers:
                need = refs[vm]
                fits = trial + 1e-12 >= need
                if not fits.any():
                    feasible = False
                    break
                # Best fit: tightest surviving bin; argmin over the
                # index-ordered array breaks ties at the lowest index.
                slot = int(np.where(fits, trial, np.inf).argmin())
                trial[slot] -= need
                moves.append((vm, slot))
            if feasible and moves:
                remaining[:] = trial
                del bins[victim]
                for vm, slot in moves:
                    target = int(ids[slot])
                    assignment[vm] = target
                    bins[target].append(vm)
                misses = 0
            else:
                misses += 1
    # Renumber densely: dissolving bins leaves holes the placement (and
    # the exact allocator's numbering convention) does not allow.
    renumber = {old: new for new, old in enumerate(sorted(bins))}
    return {vm: renumber[server] for vm, server in assignment.items()}


class _ShardPlan:
    """Frozen artefacts of the latest sharded allocate (cost lookups)."""

    __slots__ = ("names", "index", "labels", "data", "matrices", "singles")

    def __init__(
        self,
        names: tuple[str, ...],
        labels: np.ndarray,
        data: np.ndarray,
        matrices: tuple[CostMatrix, ...],
        singles: np.ndarray,
    ) -> None:
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.labels = labels
        self.data = data
        self.matrices = matrices
        self.singles = singles

    @property
    def num_shards(self) -> int:
        return len(self.matrices)


class ShardedCostView:
    """Pairwise Eqn-1 cost lookups over a sharded plan.

    Same-shard pairs read the shard's exact dense matrix; cross-shard
    pairs are computed on demand from the retained window rows — exact
    Eqn-1 values either way, just never materialized as an N×N array.
    Quacks like :class:`~repro.core.correlation.CostMatrix` where the
    frequency and evacuation layers need it (``names`` + ``cost``).
    """

    def __init__(self, plan: _ShardPlan, spec: ReferenceSpec) -> None:
        self._plan = plan
        self._spec = spec

    @property
    def names(self) -> tuple[str, ...]:
        return self._plan.names

    def cost(self, a: str, b: str) -> float:
        plan = self._plan
        if a == b:
            return NEUTRAL_COST
        ia, ib = plan.index[a], plan.index[b]
        shard_a, shard_b = plan.labels[ia], plan.labels[ib]
        if shard_a == shard_b:
            return plan.matrices[shard_a].cost(a, b)
        joint = self._spec.of(plan.data[ia] + plan.data[ib])
        if joint <= 0.0:
            return NEUTRAL_COST
        return float((plan.singles[ia] + plan.singles[ib]) / joint)


class ShardedAllocator:
    """Two-level sharded allocation, API-compatible with the exact path.

    Shares :class:`~repro.core.allocation.ExactAllocator`'s window-level
    protocol (``allocate(window, ...)`` / ``cost_view`` / ``evacuate`` /
    ``apply_membership`` / ``reset_cache`` / ``snapshot`` / ``restore``),
    so :class:`~repro.core.manager.PowerManager` and the audit and
    checkpoint layers drive either interchangeably.  Differences:

    * Pairwise costs come from the current window alone, per shard,
      never as one N×N matrix (:class:`ShardedCostView`).
    * The only cross-period state is the latest plan, which every
      :meth:`allocate` replaces, so a membership delta has nothing to
      invalidate.
    """

    def __init__(
        self,
        allocation: AllocationConfig | None = None,
        sharding: ShardingConfig | None = None,
        reference: ReferenceSpec | None = None,
    ) -> None:
        self._allocation = allocation or AllocationConfig()
        self._sharding = sharding or ShardingConfig()
        self._spec = reference or ReferenceSpec()
        self._allocator = CorrelationAwareAllocator(self._allocation)
        self._plan: _ShardPlan | None = None

    @property
    def config(self) -> AllocationConfig:
        return self._allocation

    @property
    def sharding(self) -> ShardingConfig:
        return self._sharding

    @property
    def last_num_shards(self) -> int:
        """Shard count of the latest :meth:`allocate` (0 before any)."""
        return 0 if self._plan is None else self._plan.num_shards

    def cost_view(self) -> ShardedCostView:
        """Pairwise cost lookups over the latest :meth:`allocate`."""
        if self._plan is None:
            raise RuntimeError("cost_view() requires a prior allocate()")
        return ShardedCostView(self._plan, self._spec)

    def reset_cache(self) -> None:
        """Drop the current plan."""
        self._plan = None

    def apply_membership(
        self, added: Sequence[str] = (), removed: Sequence[str] = ()
    ) -> None:
        """Nothing to adjust: each :meth:`allocate` plans its window from scratch."""

    def allocate(
        self,
        window: TraceSet,
        references: Mapping[str, float],
        n_cores: int,
        max_servers: int | None = None,
    ) -> Placement:
        """Place ``window``'s VMs via cluster → per-shard exact → stitch.

        Per-shard server indices are offset by the bins the preceding
        shards opened, so the stitched placement is dense over
        ``[0, total_bins)``.  ``max_servers`` bounds the *total* — a
        sharded plan that opens more raises :class:`CapacityError`,
        exactly like the exact allocator.
        """
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if max_servers is not None and max_servers < 1:
            raise ValueError("max_servers must be positive when given")
        names = window.names
        missing = [vm for vm in names if vm not in references]
        if missing:
            raise ValueError(f"references missing for: {missing}")

        order = _canonical_order(names)
        canon_names = tuple(names[i] for i in order)

        data = window.matrix[order]
        data.flags.writeable = False
        capacity = float(n_cores)
        labels = _compute_labels(data, self._sharding)
        num_shards = int(labels.max()) + 1

        assignment: dict[str, int] = {}
        matrices: list[CostMatrix] = []
        total_bins = 0
        for shard in range(num_shards):
            members = np.flatnonzero(labels == shard)
            member_names = tuple(canon_names[i] for i in members)
            rows = data[members]
            rows.flags.writeable = False
            subset = TraceSet.from_matrix(rows, member_names, window.period_s)
            matrix = CostMatrix.from_traces(subset, self._spec)
            local = self._allocator.allocate(
                list(member_names),
                references,
                matrix.cost,
                n_cores,
                None,
                cost_array=matrix.as_array(),
                name_index=matrix.name_index,
            )
            for vm, server in local.assignment.items():
                assignment[vm] = server + total_bins
            total_bins += local.num_servers
            matrices.append(matrix)

        if num_shards > 1:
            # Cross-shard consolidation: dissolve the per-shard tail
            # bins the stitching fragmented.  Skipped on single-shard
            # plans, which must stay bit-identical to the exact path.
            clamped = {
                vm: min(max(float(references[vm]), 0.0), capacity) for vm in canon_names
            }
            assignment = _consolidate_bins(
                assignment, clamped, capacity, self._sharding.consolidation_patience
            )
            total_bins = 1 + max(assignment.values())

        if max_servers is not None and total_bins > max_servers:
            raise CapacityError(
                f"sharded allocation opened {total_bins} servers, "
                f"only {max_servers} available"
            )
        num_servers = max_servers if max_servers is not None else total_bins
        if self._spec.is_peak:
            singles = data.max(axis=1)
        else:
            singles = np.array([self._spec.of(row) for row in data])
        self._plan = _ShardPlan(
            names=canon_names,
            labels=labels,
            data=data,
            matrices=tuple(matrices),
            singles=singles,
        )
        # Re-emit in original window order (cosmetic: Placement semantics
        # are order-free, but the engine's diffs read better this way).
        ordered = {vm: assignment[vm] for vm in names}
        return Placement(ordered, num_servers=num_servers)

    def evacuate(
        self,
        placement: Placement,
        failed_servers: Sequence[int],
        references: Mapping[str, float],
        n_cores: int,
        num_servers: int | None = None,
    ) -> Placement:
        """Re-place the failed servers' VMs against the sharded plan.

        Same documented rule as the exact allocator's ``evacuate`` (and
        the scalar Eqn-2 oracle in ``tests/test_faults.py``): evacuees in
        descending-reference-then-name order each join the surviving bin
        maximising the bucketed prospective Eqn-2 cost among fits (ties:
        larger remaining capacity, then lower index), falling back to the
        lowest-index empty survivor, then to overcommitting the roomiest
        bin.  Pair costs come from :class:`ShardedCostView`, so
        cross-shard evacuees are priced exactly.
        """
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        plan = self._plan
        if plan is None:
            raise RuntimeError("evacuate() requires a prior allocate()")
        failed = {int(server) for server in failed_servers}
        fleet = num_servers if num_servers is not None else placement.num_servers
        if fleet < placement.num_servers:
            raise ValueError(
                f"num_servers {fleet} below the placement's {placement.num_servers}"
            )
        vm_ids = list(placement.vm_ids)
        missing = [vm for vm in vm_ids if vm not in references]
        if missing:
            raise ValueError(f"references missing for: {missing}")
        evacuees = sorted(
            (vm for vm in vm_ids if placement.assignment[vm] in failed),
            key=lambda vm: (-float(references[vm]), vm),
        )
        if not evacuees:
            return placement

        capacity = float(n_cores)
        cost_fn = self.cost_view().cost
        refs = {
            vm: min(max(float(references[vm]), 0.0), capacity) for vm in vm_ids
        }
        members: dict[int, list[str]] = {
            server: [] for server in range(fleet) if server not in failed
        }
        for vm in vm_ids:
            server = placement.assignment[vm]
            if server not in failed:
                members[server].append(vm)
        if not members:
            # No surviving server at all: evacuees stay unplaced.
            survivors = {
                vm: server
                for vm, server in placement.assignment.items()
                if server not in failed
            }
            return Placement(survivors, num_servers=max(fleet, placement.num_servers))

        resolution = self._allocation.cost_resolution
        remaining = {
            server: capacity - sum(refs[m] for m in bin_members)
            for server, bin_members in members.items()
        }
        target: dict[str, int] = {}
        for vm in evacuees:
            need = refs[vm]
            best_key = None
            best_server = None
            for server in sorted(members):
                if need > remaining[server] + 1e-12:
                    continue
                bin_members = members[server]
                if bin_members:
                    cost = prospective_server_cost(bin_members, vm, refs, cost_fn)
                    bucketed = (
                        round(cost / resolution) * resolution
                        if resolution > 0
                        else cost
                    )
                    key = (0, -bucketed, -remaining[server], server)
                else:
                    key = (1, 0.0, 0.0, server)
                if best_key is None or key < best_key:
                    best_key = key
                    best_server = server
            if best_server is None:
                best_server = min(
                    members, key=lambda server: (-remaining[server], server)
                )
            members[best_server].append(vm)
            remaining[best_server] -= need
            target[vm] = best_server

        amended = {vm: target.get(vm, placement.assignment[vm]) for vm in vm_ids}
        return Placement(amended, num_servers=max(fleet, placement.num_servers))

    def snapshot(self) -> dict:
        """Serializable copy of all cross-period state (for checkpoints).

        Plain arrays and primitives only — per-shard cost matrices are
        stored as their (names, references, matrix) parts and rebuilt by
        :meth:`restore` through :class:`CostMatrix`'s plain constructor,
        so a snapshot → pickle → restore → snapshot round trip is
        byte-identical.
        """
        plan = self._plan
        if plan is None:
            plan_state = None
        else:
            plan_state = {
                "names": plan.names,
                "labels": plan.labels.copy(),
                "data": plan.data.copy(),
                "singles": plan.singles.copy(),
                "matrices": [
                    {
                        "names": matrix.names,
                        "references": np.array(
                            [matrix.reference(vm) for vm in matrix.names]
                        ),
                        "matrix": matrix.as_array().copy(),
                    }
                    for matrix in plan.matrices
                ],
            }
        return {"plan": plan_state}

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` taken from an identical config."""
        plan_state = state["plan"]
        if plan_state is None:
            self._plan = None
            return
        # ascontiguousarray with an explicit dtype: unpickled arrays carry
        # non-singleton dtype objects, which would make the re-snapshot
        # pickle to different bytes than a live allocator's.
        data = np.ascontiguousarray(plan_state["data"], dtype=float)
        data.flags.writeable = False
        matrices = []
        for part in plan_state["matrices"]:
            array = np.ascontiguousarray(part["matrix"], dtype=float)
            array.flags.writeable = False
            matrices.append(
                CostMatrix(
                    tuple(part["names"]),
                    np.ascontiguousarray(part["references"], dtype=float),
                    array,
                    self._spec,
                )
            )
        self._plan = _ShardPlan(
            names=tuple(plan_state["names"]),
            labels=np.ascontiguousarray(plan_state["labels"], dtype=np.intp),
            data=data,
            matrices=tuple(matrices),
            singles=np.ascontiguousarray(plan_state["singles"], dtype=float),
        )


def placement_energy_proxy(
    placement: Placement,
    references: Mapping[str, float],
    cost_fn,
    freq_levels_ghz: tuple[float, ...],
    n_cores: int,
) -> float:
    """Total provisioned Eqn-4 static frequency across active servers.

    A monotone proxy for the fleet's static energy on the homogeneous
    hardware model (power grows with frequency; inactive servers draw
    nothing).  The sharded-vs-exact deviation gate evaluates *both*
    placements under the **exact** cost matrix, so the metric never
    flatters the approximation it measures.
    """
    ladder = FrequencyLadder(freq_levels_ghz)
    total = 0.0
    for _server, member_set in sorted(placement.by_server().items()):
        setting = correlation_aware_frequency(
            sorted(member_set), references, cost_fn, ladder, n_cores
        )
        total += setting.freq_ghz
    return total
