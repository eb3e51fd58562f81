"""The Fig-2 correlation-aware VM allocation heuristic.

The algorithm is First-Fit-Decreasing shaped, split into the paper's two
phases:

UPDATE (done by the caller / :class:`~repro.core.manager.PowerManager`):
predict per-VM reference utilizations, sort VMs by predicted reference
descending (line 6, "to reduce the fragmentation of the bin-packing
problem"), refresh the cost matrix (line 7), and estimate the number of
active servers as ``ceil(sum(u_hat) / Ncore)`` (Eqn 3, line 8).

ALLOCATE (this module): repeatedly select the server with the largest
remaining capacity ``Rem_i`` (line 10) and give it the unallocated VM
that maximises the prospective Eqn-2 server cost, subject to (1) the
prospective cost exceeding the threshold ``TH_cost`` and (2) the VM's
reference fitting in ``Rem_i`` (line 11).  When a full sweep over the
servers places nothing while VMs remain, the threshold is degenerated by
the factor ``alpha`` (line 17) and the servers re-sorted by remaining
capacity (line 18).

Two candidate-evaluation strategies implement line 11:

* the **string-keyed path** (default) calls the scalar Eqn-2
  ``prospective_server_cost`` per fitting candidate through an arbitrary
  ``cost_fn`` — the reference implementation;
* the **indexed fast path** (``cost_array`` + ``name_index``) keeps a
  cached pairwise-sum/weight pair per server bin so the prospective cost
  of *all* fitting candidates is evaluated at once in O(|bin|) array
  operations per candidate: for a bin with members ``S``, cached
  ``T_S = sum_j r_j * sum_{k != j} C(j, k)``, and candidate ``c``,
  ``Cost(S + c) = (T_S + sum_j (r_j + r_c) C(j, c)) / ((R_S + r_c) |S|)``.
  The dense matrix must be symmetric (both cost matrices are).  The two
  paths produce identical placements (up to floating-point noise far
  below the cost resolution); the equivalence tests randomize over
  instances to check it.

The indexed path gathers ``cost_array`` into canonical slot order once
per call (an O(N²) gather, dropped when the call returns; the allocator
keeps nothing between calls but its config), and batches its sweeps:

* **Per-bin cost caching + TH-level sweep batching.**  A bin's
  prospective candidate costs depend only on its membership, so each bin
  caches the dense candidate-cost vector and invalidates it only when a
  VM lands *in that bin*.  Unproductive sweeps then never recompute
  Eqn 2: when a full sweep places nothing while fitting candidates
  remain, the sweep loop reads the cached per-bin best admissible cost,
  takes one masked reduction to find the highest prospective cost ``m``
  across all bins, and degenerates the threshold through however many
  ``alpha`` levels are needed until ``m`` admits — in one step instead
  of one full re-scan per TH level.  The threshold trajectory (repeated
  ``threshold *= alpha``) and the sweep accounting against
  ``max_sweeps`` are replicated exactly, so placements are identical to
  the level-by-level scalar loop.

Interpretation notes (the paper gives the mechanism, not every corner):

* The target server is re-selected (largest ``Rem_i`` first) after
  *every* placement, not after a server fills up.  This balanced fill
  matters: stuffing one server to capacity before moving on spends all
  the well-de-correlated candidates early and piles the correlated
  leftovers onto the last servers, which defeats the whole scheme.  With
  re-selection the big VMs spread out first and every server then
  attracts its least-correlated partners.
* The first VM placed on an *empty* server is exempt from the threshold
  test — a singleton server has cost 1.0 by definition and no threshold
  above 1 would ever admit it.  The threshold gates *added* correlation.
* ``TH_cost`` decays geometrically, and every pairwise cost is strictly
  positive, so the correlation constraint always becomes vacuous after
  finitely many sweeps; if VMs still cannot be placed the blocker is
  capacity fragmentation, and the allocator opens servers beyond the
  Eqn-3 estimate (bounded by the fleet size when one is given).  The
  paper implicitly allows this — a placement failure would be an infinite
  QoS violation.
* Ties in the prospective cost break towards the larger reference (better
  bin-packing), then lexicographically (determinism).
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.correlation import CostMatrix, RollingCostHorizon
from repro.core.placement import Placement
from repro.core.server_cost import CostFn, prospective_server_cost
from repro.traces.trace import ReferenceSpec, TraceSet

if TYPE_CHECKING:
    from repro.core.sharding import ShardedCostView

__all__ = ["AllocationConfig", "CorrelationAwareAllocator", "CapacityError", "ExactAllocator"]

_FIT_EPS = 1e-12


class CapacityError(RuntimeError):
    """Raised when VMs cannot fit in the available fleet at any threshold."""


@dataclass(frozen=True)
class AllocationConfig:
    """Tunables of the ALLOCATE phase.

    ``th_cost`` and ``alpha`` are the paper's (unspecified) constants; the
    defaults are the values used throughout our experiments and swept by
    the ablation benches.

    Parameters
    ----------
    th_cost:
        Initial correlation threshold.  A candidate may join a non-empty
        server only if the resulting Eqn-2 cost exceeds the current
        threshold; 1.10 demands at least 10% multiplexing headroom before
        co-locating.
    alpha:
        Geometric decay applied to the threshold after every unproductive
        sweep, in (0, 1).
    cost_resolution:
        Candidate costs are compared at this granularity; among
        candidates whose prospective costs are indistinguishable at it,
        the larger VM wins.  This keeps the descending-size discipline
        that line 6 introduces "to reduce the fragmentation of the
        bin-packing problem" active *inside* the cost-driven selection —
        with an exact comparison the selection order is effectively
        random in size, and the balanced fill then strands large VMs.
        0 disables the bucketing (exact cost comparison).
    max_sweeps:
        Hard iteration bound; hitting it raises :class:`CapacityError`
        instead of looping (it cannot trigger for sane inputs and exists
        as an algorithmic safety net).
    """

    th_cost: float = 1.10
    alpha: float = 0.9
    cost_resolution: float = 0.05
    max_sweeps: int = 10_000

    def __post_init__(self) -> None:
        if self.th_cost <= 0:
            raise ValueError("th_cost must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.cost_resolution < 0:
            raise ValueError("cost_resolution must be non-negative")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")


class _Bin:
    """Mutable server-side bookkeeping during one allocation run.

    ``members`` holds VM names (string path) or candidate slots (indexed
    path).  ``ref_sum`` and ``pair_weight`` are the indexed fast path's
    incremental Eqn-2 state: the committed reference sum ``R_S`` and the
    weighted pairwise sum ``T_S = sum_j r_j * sum_{k != j} C(j, k)``.
    ``cost_cache`` memoizes the indexed path's (fitting slots, costs,
    bucketed costs) triple for the current membership; it is invalidated
    whenever a VM is placed *into this bin* (placements elsewhere only
    shrink the free mask, which is applied on read).
    """

    __slots__ = ("index", "members", "remaining", "ref_sum", "pair_weight", "cost_cache")

    def __init__(self, index: int, capacity: float) -> None:
        self.index = index
        self.members: list = []
        self.remaining = capacity
        self.ref_sum = 0.0
        self.pair_weight = 0.0
        self.cost_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


class _StringCandidates:
    """Line-11 candidate selection through a scalar ``cost_fn``.

    The canonical candidate order (descending reference, then name) is
    fixed up front; placed VMs are tracked in a set, so per-pick
    bookkeeping never pays the O(N) ``list.remove`` of the naive
    formulation.
    """

    def __init__(
        self,
        order: Sequence[str],
        refs: Mapping[str, float],
        cost_fn: CostFn,
        resolution: float,
    ) -> None:
        self._order = list(order)
        self._refs = refs
        self._cost_fn = cost_fn
        self._resolution = resolution
        self._placed: set[str] = set()

    @property
    def remaining(self) -> int:
        return len(self._order) - len(self._placed)

    def any_fits(self, free_capacity: float) -> bool:
        return any(
            self._refs[vm] <= free_capacity + _FIT_EPS
            for vm in self._order
            if vm not in self._placed
        )

    def pick(self, bin_: _Bin, threshold: float) -> str | None:
        fitting = [
            vm
            for vm in self._order
            if vm not in self._placed and self._refs[vm] <= bin_.remaining + _FIT_EPS
        ]
        if not fitting:
            return None
        if not bin_.members:
            # Canonical order is descending reference: the FFD move.
            return fitting[0]
        resolution = self._resolution
        best_vm: str | None = None
        best_key: tuple[float, float, str] | None = None
        for vm in fitting:
            cost = prospective_server_cost(bin_.members, vm, self._refs, self._cost_fn)
            if cost <= threshold:
                continue
            bucketed = round(cost / resolution) * resolution if resolution > 0 else cost
            key = (-bucketed, -self._refs[vm], vm)
            if best_key is None or key < best_key:
                best_key = key
                best_vm = vm
        return best_vm

    def place(self, bin_: _Bin, vm: str) -> None:
        bin_.members.append(vm)
        bin_.remaining -= self._refs[vm]
        self._placed.add(vm)

    def best_cost(self, bin_: _Bin) -> float | None:
        """Highest prospective cost among free fitting candidates.

        ``None`` when nothing fits; ``inf`` for an empty bin (which
        admits its first fitting candidate at any threshold).  Used by
        the sweep loop to batch threshold degeneration across TH levels.
        """
        fitting = [
            vm
            for vm in self._order
            if vm not in self._placed and self._refs[vm] <= bin_.remaining + _FIT_EPS
        ]
        if not fitting:
            return None
        if not bin_.members:
            return math.inf
        return max(
            prospective_server_cost(bin_.members, vm, self._refs, self._cost_fn)
            for vm in fitting
        )

    def size_of(self, member: str) -> float:
        return self._refs[member]

    def name_of(self, member: str) -> str:
        return member


class _IndexedCandidates:
    """Line-11 candidate selection over a dense symmetric cost array.

    Candidates live in *slot* space — positions in the canonical
    (descending reference, then name) order — with the cost matrix
    re-indexed to match, an aligned reference vector, and a free-slot
    mask.  Each bin's fitting-candidate cost vector (prospective Eqn-2
    costs against the bin's cached pair-sum state) is computed once per
    bin membership and memoized on the bin, so a :meth:`pick` is one
    masked reduction and repeated sweeps at degenerating thresholds
    never recompute Eqn 2.
    """

    def __init__(
        self,
        order: Sequence[str],
        refs: Mapping[str, float],
        permuted_costs: np.ndarray,
        resolution: float,
    ) -> None:
        self._names = list(order)
        self._r = np.array([refs[vm] for vm in order], dtype=float)
        self._costs = permuted_costs
        self._free = np.ones(len(self._names), dtype=bool)
        self._free_count = len(self._names)
        self._resolution = resolution

    @property
    def remaining(self) -> int:
        return self._free_count

    def any_fits(self, free_capacity: float) -> bool:
        return bool((self._r[self._free] <= free_capacity + _FIT_EPS).any())

    def _bin_costs(self, bin_: _Bin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fitting slots, their prospective costs and bucketed costs (memoized).

        Computed over the slots that are free *and* fit at compute time.
        A bin's ``remaining`` only changes with its membership (which
        invalidates the cache) and the free mask only ever shrinks, so a
        cached triple stays a valid superset of the live fitting set —
        readers mask it with the free set, which is O(|cached|), instead
        of re-running the O(|fitting| x |bin|) Eqn-2 evaluation.
        Bucketing is elementwise, so bucketing every cached cost once
        gives each candidate the same value as bucketing it at pick time.
        """
        cache = bin_.cost_cache
        if cache is None:
            r = self._r
            fitting = (self._free & (r <= bin_.remaining + _FIT_EPS)).nonzero()[0]
            members = np.asarray(bin_.members, dtype=np.intp)
            # The C-contiguous (fitting, members) gather, as np.ix_ would
            # index it, without np.ix_'s per-call argument checks.
            sub = self._costs[fitting[:, None], members]
            r_fitting = r[fitting]
            cross = sub @ r[members] + r_fitting * sub.sum(axis=1)
            totals = bin_.ref_sum + r_fitting
            with np.errstate(divide="ignore", invalid="ignore"):
                costs = np.where(
                    totals > 0.0,
                    (bin_.pair_weight + cross) / (totals * members.size),
                    1.0,
                )
            resolution = self._resolution
            bucketed = np.round(costs / resolution) * resolution if resolution > 0 else costs
            cache = (fitting, costs, bucketed)
            bin_.cost_cache = cache
        return cache

    def pick(self, bin_: _Bin, threshold: float) -> int | None:
        if not bin_.members:
            fitting = np.flatnonzero(
                self._free & (self._r <= bin_.remaining + _FIT_EPS)
            )
            if fitting.size == 0:
                return None
            # Canonical order is descending reference: the FFD move.
            return int(fitting[0])
        fitting, costs, bucketed = self._bin_costs(bin_)
        if fitting.size == 0:
            return None
        # One masked argmax over the live, admissible candidates.  argmax
        # returns the *first* maximum; slots are in canonical (descending
        # reference, then name) order, so the bucket tie-break matches the
        # string path's (-cost, -reference, name) key.
        admissible = self._free[fitting] & (costs > threshold)
        best = int(np.where(admissible, bucketed, -np.inf).argmax())
        if not admissible[best]:
            return None
        return int(fitting[best])

    def best_cost(self, bin_: _Bin) -> float | None:
        """Highest prospective cost among free fitting candidates.

        ``None`` when nothing fits; ``inf`` for an empty bin.  One cached
        masked max — this is what lets the sweep loop jump the threshold
        across TH levels without re-scanning every bin per level.
        """
        if not bin_.members:
            if self.any_fits(bin_.remaining):
                return math.inf
            return None
        fitting, costs, _ = self._bin_costs(bin_)
        costs = costs[self._free[fitting]]
        if costs.size == 0:
            return None
        return float(costs.max())

    def place(self, bin_: _Bin, slot: int) -> None:
        if bin_.members:
            members = np.asarray(bin_.members, dtype=np.intp)
            row = self._costs[slot, members]
            bin_.pair_weight += float(row @ self._r[members]) + self._r[slot] * float(row.sum())
        bin_.members.append(slot)
        bin_.remaining -= self._r[slot]
        bin_.ref_sum += self._r[slot]
        bin_.cost_cache = None
        self._free[slot] = False
        self._free_count -= 1

    def size_of(self, member: int) -> float:
        return float(self._r[member])

    def name_of(self, member: int) -> str:
        return self._names[member]


class CorrelationAwareAllocator:
    """The proposed placement heuristic (Fig 2, ALLOCATE phase)."""

    def __init__(self, config: AllocationConfig | None = None) -> None:
        self._config = config or AllocationConfig()

    @property
    def config(self) -> AllocationConfig:
        """The active tunables."""
        return self._config

    @staticmethod
    def _slot_rows(
        order: Sequence[str],
        cost_array: np.ndarray,
        name_index: Mapping[str, int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The validated ``cost_array`` and the row of each slot in ``order``."""
        cost_array = np.asarray(cost_array, dtype=float)
        if cost_array.ndim != 2 or cost_array.shape[0] != cost_array.shape[1]:
            raise ValueError(f"cost_array must be square, got shape {cost_array.shape}")
        missing = [vm for vm in order if vm not in name_index]
        if missing:
            raise ValueError(f"name_index missing entries for {missing}")
        rows = np.array([name_index[vm] for vm in order], dtype=np.intp)
        if rows.size and (rows.min() < 0 or rows.max() >= cost_array.shape[0]):
            raise ValueError("name_index points outside cost_array")
        return cost_array, rows

    def allocate(
        self,
        vm_ids: Sequence[str],
        references: Mapping[str, float],
        cost_fn: CostFn | None,
        n_cores: int,
        max_servers: int | None = None,
        *,
        cost_array: np.ndarray | None = None,
        name_index: Mapping[str, int] | None = None,
    ) -> Placement:
        """Place ``vm_ids`` onto the minimum number of ``n_cores`` servers.

        Parameters
        ----------
        vm_ids:
            VMs to place.
        references:
            Predicted reference utilization per VM (cores-at-fmax); each
            value is clamped into ``[0, n_cores]`` — a VM predicted beyond
            a whole server can at best receive a full server.
        cost_fn:
            Pairwise Eqn-1 cost lookup (exact or streaming matrix).  May
            be ``None`` when the dense fast path inputs are supplied.
        n_cores:
            Per-server capacity ``Ncore``.
        max_servers:
            Optional fleet-size bound; exceeding it raises
            :class:`CapacityError`.
        cost_array:
            Optional dense symmetric pairwise cost matrix (e.g.
            ``CostMatrix.as_array()``).  Supplying it (with
            ``name_index``) selects the incremental indexed fast path.
        name_index:
            ``{vm name: cost_array row}`` map, e.g.
            ``CostMatrix.name_index``; required alongside ``cost_array``.

        Returns
        -------
        Placement
            Every input VM placed exactly once; per-server committed
            reference never exceeds ``n_cores``.
        """
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        vm_ids = list(vm_ids)
        if len(set(vm_ids)) != len(vm_ids):
            raise ValueError("duplicate VM ids")
        if not vm_ids:
            raise ValueError("nothing to allocate")
        missing = [vm for vm in vm_ids if vm not in references]
        if missing:
            raise ValueError(f"missing references for {missing}")
        if cost_array is None and cost_fn is None:
            raise ValueError("need either cost_fn or cost_array + name_index")

        capacity = float(n_cores)
        refs = {vm: min(max(float(references[vm]), 0.0), capacity) for vm in vm_ids}

        # UPDATE leftovers that live here by construction: the descending
        # sort (line 6) and the Eqn-3 server estimate (line 8).
        order = sorted(vm_ids, key=lambda vm: (-refs[vm], vm))
        estimate = max(1, math.ceil(sum(refs.values()) / capacity - 1e-12))
        if max_servers is not None:
            if max_servers < 1:
                raise ValueError("max_servers must be positive")
            if estimate > max_servers:
                raise CapacityError(
                    f"Eqn-3 estimate needs {estimate} servers, fleet has {max_servers}"
                )

        resolution = self._config.cost_resolution
        if cost_array is not None:
            if name_index is None:
                raise ValueError("cost_array requires a name_index mapping")
            cost_array, rows = self._slot_rows(order, cost_array, name_index)
            candidates: _StringCandidates | _IndexedCandidates = _IndexedCandidates(
                order, refs, cost_array[np.ix_(rows, rows)], resolution
            )
        else:
            candidates = _StringCandidates(order, refs, cost_fn, resolution)

        bins = self._run_sweeps(candidates, capacity, estimate, max_servers)
        self._consolidate_extras(bins, candidates.size_of, estimate)

        assignment = {
            candidates.name_of(member): bin_.index for bin_ in bins for member in bin_.members
        }
        num_servers = max_servers if max_servers is not None else len(bins)
        placement = Placement(assignment, num_servers=num_servers)
        placement.validate_capacity(refs, capacity)
        return placement

    def evacuate(
        self,
        placement: Placement,
        failed_servers: Sequence[int],
        references: Mapping[str, float],
        n_cores: int,
        num_servers: int | None = None,
        *,
        costs: CostMatrix | ShardedCostView,
    ) -> Placement:
        """Re-place the failed servers' VMs without a full rebuild.

        The incremental arrival/departure path: the surviving bins'
        Eqn-2 state (``R_S`` and the weighted pair sum ``T_S``) is
        reconstructed from ``placement`` over the same canonical slot
        order :meth:`allocate` used, reading each slot's pair costs
        through ``costs.pair_costs`` at its ``costs.name_index`` row —
        an array slice of a :class:`CostMatrix`, or the sharded tier's
        shard-matrix gathers plus one batched cross-shard reference —
        without an O(N²) gather or a sweep loop.  Each evacuee
        (descending clamped reference, then name) then joins the
        surviving bin that *maximises* the bucketed prospective Eqn-2
        cost among the bins it fits (ties: larger remaining capacity,
        then lower index); when no non-empty bin fits, the lowest-index
        empty survivor is opened; when nothing fits at all, the bin
        with the most remaining capacity is *overcommitted* — an
        emergency re-placement prefers a violated QoS target over an
        unhosted VM, so no correlation threshold gates admission and
        ``validate_capacity`` is not enforced.  A VM stays unplaced only
        when no surviving server exists.

        Returns the amended placement (original VM order preserved);
        the caller diffs it against the input to charge migrations.
        """
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        capacity = float(n_cores)
        failed = {int(server) for server in failed_servers}
        fleet = num_servers if num_servers is not None else placement.num_servers
        if fleet < placement.num_servers:
            raise ValueError(
                f"num_servers {fleet} below the placement's {placement.num_servers}"
            )
        vm_ids = list(placement.vm_ids)
        missing = [vm for vm in vm_ids if vm not in references]
        if missing:
            raise ValueError(f"missing references for {missing}")
        evacuees_exist = any(
            server in failed for server in placement.assignment.values()
        )
        if not evacuees_exist:
            return placement

        refs = {vm: min(max(float(references[vm]), 0.0), capacity) for vm in vm_ids}
        order = sorted(vm_ids, key=lambda vm: (-refs[vm], vm))
        index = costs.name_index
        missing = [vm for vm in order if vm not in index]
        if missing:
            raise ValueError(f"the cost view has no entries for {missing}")
        rows = np.array([index[vm] for vm in order], dtype=np.intp)
        r = np.array([refs[vm] for vm in order], dtype=float)
        slot_of = {vm: slot for slot, vm in enumerate(order)}

        def cross(slot: int, bin_: _Bin) -> float:
            """``sum_j (r_j + r_c) C(j, c)`` of slot ``c`` against the bin."""
            members = np.asarray(bin_.members, dtype=np.intp)
            row = costs.pair_costs(rows[slot], rows[members])
            return float(row @ r[members]) + r[slot] * float(row.sum())

        bins = {
            server: _Bin(server, capacity)
            for server in range(fleet)
            if server not in failed
        }
        for vm, server in placement.assignment.items():
            if server in failed:
                continue
            bin_ = bins[server]
            slot = slot_of[vm]
            if bin_.members:
                bin_.pair_weight += cross(slot, bin_)
            bin_.members.append(slot)
            bin_.remaining -= r[slot]
            bin_.ref_sum += r[slot]

        resolution = self._config.cost_resolution
        targets: dict[str, int] = {}
        for vm in order:
            if placement.assignment[vm] not in failed:
                continue
            slot = slot_of[vm]
            demand = r[slot]
            best_key: tuple | None = None
            best_bin: _Bin | None = None
            for server in sorted(bins):
                bin_ = bins[server]
                if demand > bin_.remaining + _FIT_EPS:
                    continue
                if bin_.members:
                    total = bin_.ref_sum + demand
                    cost = (
                        (bin_.pair_weight + cross(slot, bin_)) / (total * len(bin_.members))
                        if total > 0.0
                        else 1.0
                    )
                    bucketed = (
                        round(cost / resolution) * resolution
                        if resolution > 0
                        else cost
                    )
                    key = (0, -bucketed, -bin_.remaining, bin_.index)
                else:
                    key = (1, 0.0, 0.0, bin_.index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_bin = bin_
            if best_bin is None and bins:
                best_bin = min(bins.values(), key=lambda b: (-b.remaining, b.index))
            if best_bin is None:
                continue
            bin_ = best_bin
            if bin_.members:
                bin_.pair_weight += cross(slot, bin_)
            bin_.members.append(slot)
            bin_.remaining -= demand
            bin_.ref_sum += demand
            targets[vm] = bin_.index

        assignment: dict[str, int] = {}
        for vm, server in placement.assignment.items():
            if server in failed:
                if vm in targets:
                    assignment[vm] = targets[vm]
            else:
                assignment[vm] = server
        return Placement(assignment, num_servers=max(fleet, placement.num_servers))

    def _run_sweeps(
        self,
        candidates: _StringCandidates | _IndexedCandidates,
        capacity: float,
        estimate: int,
        max_servers: int | None,
    ) -> list[_Bin]:
        """The Fig-2 sweep loop, agnostic of the candidate strategy.

        Line 10 / 18: each sweep asks the servers in descending order of
        remaining capacity (ties: lower index) and places one VM on the
        first that picks one, so the target server is re-ranked after
        every placement.  ``ranked`` holds the ``(-Rem_i, index)`` keys
        in that order; a placement moves one key with one ``insort``
        instead of re-sorting every bin.

        A bin whose pick comes back empty leaves ``ranked`` until the
        threshold degenerates or a server opens.  Its members and
        ``Rem_i`` cannot change without a placement into it and the
        free set only shrinks, so at the same threshold it would come
        back empty again: each sweep asks the same bins in the same
        order as a full re-ranked pass, minus answers already known.
        """
        bins = [_Bin(i, capacity) for i in range(estimate)]
        threshold = self._config.th_cost
        max_sweeps = self._config.max_sweeps
        sweeps = 0
        ranked = [(-capacity, i) for i in range(estimate)]
        while candidates.remaining:
            sweeps += 1
            if sweeps > max_sweeps:
                raise CapacityError(
                    f"allocation did not converge within {max_sweeps} sweeps"
                )
            while ranked:
                bin_ = bins[ranked[0][1]]
                chosen = candidates.pick(bin_, threshold)
                if chosen is not None:
                    break
                del ranked[0]
            if ranked:
                candidates.place(bin_, chosen)
                del ranked[0]
                insort(ranked, (-float(bin_.remaining), bin_.index))
                continue
            # Batched sweep across TH levels: bin costs are unchanged
            # until the next placement, so the highest prospective cost
            # ``best`` across all bins decides every pending threshold
            # comparison at once.  Degenerate through exactly the levels
            # the level-by-level loop would have swept unproductively
            # (same repeated ``*= alpha`` float trajectory, same
            # ``max_sweeps`` accounting), then let the outer loop run the
            # first productive sweep.
            best = float("-inf")
            for bin_ in bins:
                bin_best = candidates.best_cost(bin_)
                if bin_best is not None and bin_best > best:
                    best = bin_best
            if best > float("-inf"):
                # Correlation-blocked: degenerate the threshold (line 17).
                threshold *= self._config.alpha
                while best <= threshold:
                    sweeps += 1
                    if sweeps > max_sweeps:
                        raise CapacityError(
                            f"allocation did not converge within {max_sweeps} sweeps"
                        )
                    threshold *= self._config.alpha
            else:
                # Capacity-blocked (nothing fits anywhere): the Eqn-3
                # estimate was too tight for this fragmentation; open
                # one more server.
                if max_servers is not None and len(bins) >= max_servers:
                    raise CapacityError(
                        f"cannot place {candidates.remaining} VMs within "
                        f"{max_servers} servers of capacity {capacity}"
                    )
                bins.append(_Bin(len(bins), capacity))
            ranked = sorted((-float(bin_.remaining), bin_.index) for bin_ in bins)
        return bins

    @staticmethod
    def _consolidate_extras(
        bins: list[_Bin], size_of: Callable[[object], float], estimate: int
    ) -> None:
        """Close bins opened beyond the Eqn-3 estimate when possible.

        The balanced (largest-``Rem``-first) fill can fragment capacity and
        open a server beyond the estimate; since "the number of active
        servers is minimized" is an explicit objective of the paper's
        formulation, a final pass tries to drain each extra bin into the
        spare capacity of the estimated ones (the correlation threshold is
        vacuous by the time extras exist — they are opened only after it
        has fully degenerated).  A bin is only closed when *all* of its
        VMs relocate.
        """
        for extra in reversed(bins[estimate:]):
            if not extra.members:
                continue
            moves: list[tuple[object, _Bin]] = []
            planned: dict[int, float] = {}
            for member in extra.members:
                demand = size_of(member)
                target: _Bin | None = None
                for bin_ in bins[:estimate]:
                    free = bin_.remaining - planned.get(bin_.index, 0.0)
                    if demand <= free + _FIT_EPS:
                        target = bin_
                        break
                if target is None:
                    break
                planned[target.index] = planned.get(target.index, 0.0) + demand
                moves.append((member, target))
            if len(moves) != len(extra.members):
                continue
            for member, target in moves:
                target.members.append(member)
                target.remaining -= size_of(member)
            extra.members.clear()
            extra.remaining = 0.0


class ExactAllocator:
    """Window-level exact allocation: Eqn-1 costs, then Fig 2.

    Shares :class:`~repro.core.sharding.ShardedAllocator`'s protocol, so
    :class:`~repro.core.manager.PowerManager` drives either backend the
    same way.  Each :meth:`allocate` prices the window with
    :meth:`costs` (the rolling-horizon fold), keeps that matrix for
    :meth:`cost_view` and :meth:`evacuate`, and runs
    :class:`CorrelationAwareAllocator`'s dense fast path on it.
    """

    def __init__(
        self,
        allocation: AllocationConfig | None = None,
        reference: ReferenceSpec | None = None,
        horizon_periods: int = 1,
        horizon_mode: str = "exact",
    ) -> None:
        self._allocator = CorrelationAwareAllocator(allocation)
        self._horizon = RollingCostHorizon(reference, horizon_periods, horizon_mode)
        # CostMatrix is immutable, so the latest one is held, never copied.
        self._last_matrix: CostMatrix | None = None

    def costs(self, window: TraceSet) -> CostMatrix:
        """The pairwise cost matrix one :meth:`allocate` runs on."""
        return self._horizon.push(window)

    def allocate(
        self,
        window: TraceSet,
        references: Mapping[str, float],
        n_cores: int,
        max_servers: int | None = None,
    ) -> Placement:
        """Price ``window`` with :meth:`costs` and place its VMs (Fig 2)."""
        matrix = self._last_matrix = self.costs(window)
        return self._allocator.allocate(
            list(window.names),
            references,
            matrix.cost,
            n_cores,
            max_servers,
            cost_array=matrix.as_array(),
            name_index=matrix.name_index,
        )

    def cost_view(self) -> CostMatrix:
        """The cost matrix of the latest :meth:`allocate`."""
        if self._last_matrix is None:
            raise RuntimeError("cost_view() requires a prior allocate()")
        return self._last_matrix

    def evacuate(
        self,
        placement: Placement,
        failed_servers: Sequence[int],
        references: Mapping[str, float],
        n_cores: int,
        num_servers: int | None = None,
    ) -> Placement:
        """Re-place the failed servers' VMs against the latest matrix
        (see :meth:`CorrelationAwareAllocator.evacuate`)."""
        return self._allocator.evacuate(
            placement, failed_servers, references, n_cores, num_servers, costs=self.cost_view()
        )

    def apply_membership(
        self, added: Sequence[str] = (), removed: Sequence[str] = ()
    ) -> None:
        """Hand a membership delta to the horizon."""
        self._horizon.apply_membership(added=added, removed=removed)

    def reset(self) -> None:
        """Drop the horizon and the latest matrix."""
        self._horizon.reset()
        self._last_matrix = None

    def snapshot(self) -> dict:
        """Serializable copy of all cross-period state (for checkpoints)."""
        return {"horizon": self._horizon.snapshot(), "last_matrix": self._last_matrix}

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` taken from an identical config."""
        self._horizon.restore(state["horizon"])
        self._last_matrix = state["last_matrix"]
