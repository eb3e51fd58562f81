"""The periodic power-management loop (the library's main entry point).

:class:`PowerManager` implements the full Section-IV pipeline for one
placement period:

1. **UPDATE** — observe the just-finished period's utilization window,
   append each VM's observed reference utilization to its history and
   predict the upcoming period's references (last-value by default).
2. **ALLOCATE** — the allocator backend prices the window (the Eqn-1
   cost matrix over a rolling horizon, or the sharded tier's per-shard
   costs) and runs the Fig-2 correlation-aware heuristic against the
   predicted references and the Eqn-3 server estimate.
3. **v/f** — set each active server's static frequency with Eqn 4.

The replay engine (:mod:`repro.sim.engine`) drives it through
:class:`~repro.sim.approaches.ProposedApproach`; library users can also
drive it directly against live monitoring windows, which is the
deployment mode the paper describes (``t_period`` = 1 hour).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.core.allocation import AllocationConfig, ExactAllocator
from repro.core.correlation import CostMatrix
from repro.core.placement import Placement
from repro.core.sharding import ShardedAllocator, ShardedCostView, ShardingConfig
from repro.core.vf_control import correlation_aware_frequency, estimate_active_servers
from repro.infrastructure.dvfs import FrequencyLadder, StaticVfSetting
from repro.prediction.predictors import LastValuePredictor, Predictor, ReferenceHistory
from repro.traces.trace import ReferenceSpec, TraceSet

__all__ = ["ManagerConfig", "PeriodDecision", "PowerManager"]


@dataclass(frozen=True)
class ManagerConfig:
    """Static configuration of a :class:`PowerManager`.

    Parameters
    ----------
    n_cores:
        Cores per (homogeneous) server — the paper's ``Ncore``.
    freq_levels_ghz:
        The servers' discrete frequency ladder.
    reference:
        Reference-utilization policy (peak by default, any percentile for
        softer QoS targets).
    allocation:
        Tunables of the ALLOCATE phase (``TH_cost``, ``alpha``).
    max_servers:
        Optional fleet-size bound passed through to the allocator.
    default_reference:
        Prediction used for VMs with no history yet (first period); the
        conservative choice is the per-VM core cap, supplied by the caller.
    horizon_periods:
        Monitoring windows the cost matrix covers.  The default of 1
        (cost matrix from the latest window alone) is the original
        manager behaviour; larger horizons fold cached per-window parts
        through :class:`~repro.core.correlation.RollingCostHorizon`,
        exactly like the replay approaches do.  Must be 1 under
        ``allocator="sharded"``, which uses single-window costs.
    horizon_mode:
        ``"exact"`` or ``"p2"`` — only meaningful for multi-window
        percentile-reference horizons (see
        :class:`~repro.core.correlation.RollingCostHorizon`).
    allocator:
        ``"exact"`` (dense Fig-2 fast path, the default) or ``"sharded"``
        (the two-level 100k-VM tier of :mod:`repro.core.sharding` —
        approximate but gated, single-window costs, no N×N matrix).
    sharding:
        Knobs of the sharded tier; ignored under ``allocator="exact"``.
    """

    n_cores: int
    freq_levels_ghz: tuple[float, ...]
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    allocation: AllocationConfig = field(default_factory=AllocationConfig)
    max_servers: int | None = None
    default_reference: float = 1.0
    horizon_periods: int = 1
    horizon_mode: str = "exact"
    allocator: str = "exact"
    sharding: ShardingConfig | None = None

    def __post_init__(self) -> None:
        # NaN-safe: a bare ``x <= 0`` comparison passes NaN, so every
        # numeric bound also requires finiteness (mirrors
        # MigrationCostModel's validation).
        if not math.isfinite(self.n_cores) or self.n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if not math.isfinite(self.default_reference) or self.default_reference < 0:
            raise ValueError("default_reference must be non-negative")
        if not math.isfinite(self.horizon_periods) or self.horizon_periods < 1:
            raise ValueError("horizon_periods must be at least 1")
        if self.horizon_mode not in ("exact", "p2"):
            raise ValueError(
                f'horizon_mode must be "exact" or "p2", got {self.horizon_mode!r}'
            )
        if self.allocator not in ("exact", "sharded"):
            raise ValueError(
                f'allocator must be "exact" or "sharded", got {self.allocator!r}'
            )
        if self.allocator == "sharded" and self.horizon_periods != 1:
            raise ValueError('allocator="sharded" uses single-window costs; set horizon_periods=1')


@dataclass(frozen=True)
class PeriodDecision:
    """Everything the manager decided for one upcoming period."""

    placement: Placement
    frequencies: Mapping[int, StaticVfSetting]
    predicted_references: Mapping[str, float]
    estimated_servers: int
    #: Pairwise cost lookups behind the decision — a dense
    #: :class:`CostMatrix` under ``allocator="exact"``, a
    #: :class:`~repro.core.sharding.ShardedCostView` under ``"sharded"``
    #: (same ``cost(a, b)`` surface, never materialized N×N).
    cost_matrix: CostMatrix | ShardedCostView

    def frequency_of(self, server_index: int) -> float:
        """Convenience: the chosen frequency of one server."""
        return self.frequencies[server_index].freq_ghz


class PowerManager:
    """Periodic correlation-aware consolidation + v/f scaling."""

    def __init__(
        self,
        config: ManagerConfig,
        predictor: Predictor | None = None,
    ) -> None:
        self._config = config
        # Histories keep only the trailing values the predictor reads, so
        # a long-running loop (``repro serve``) does not grow them forever.
        self._refs = ReferenceHistory(
            config.reference,
            predictor or LastValuePredictor(default=config.default_reference),
            config.default_reference,
        )
        # The only place the backends differ: both share one protocol.
        self._allocator: ExactAllocator | ShardedAllocator
        if config.allocator == "sharded":
            self._allocator = ShardedAllocator(
                config.allocation, config.sharding, config.reference
            )
        else:
            self._allocator = ExactAllocator(
                config.allocation, config.reference, config.horizon_periods, config.horizon_mode
            )
        self._ladder = FrequencyLadder(config.freq_levels_ghz)
        # Ordered registry of VMs admitted through the membership API
        # (dict keys as an ordered set).  Populations driven purely
        # through decide() never populate it, which keeps the legacy
        # snapshot layout byte-identical.
        self._members: dict[str, None] = {}

    @property
    def config(self) -> ManagerConfig:
        """The static configuration."""
        return self._config

    @property
    def history(self) -> Mapping[str, tuple[float, ...]]:
        """Per-VM observed reference history (oldest first), trimmed to
        the predictor's ``history_window``."""
        return self._refs.history

    @property
    def members(self) -> tuple[str, ...]:
        """VMs admitted through the membership API, in admission order."""
        return tuple(self._members)

    def admit(self, vm_ids: Sequence[str] | str) -> None:
        """Register arriving VMs with every stateful layer.

        On a fresh manager this is pure bookkeeping (all layer caches
        are empty), so a static population driven through
        ``admit()``-then-:meth:`decide` is bit-identical to the batch
        path.  Mid-stream, the exact backend extends its rolling
        horizon's cached parts so history for surviving VMs keeps
        folding; the sharded tier re-plans every window and keeps
        nothing to adjust.

        Admitted VMs are expected to appear in subsequent
        :meth:`decide` windows as survivors (current relative order)
        followed by arrivals in admission order.
        """
        ids = (vm_ids,) if isinstance(vm_ids, str) else tuple(vm_ids)
        if not ids:
            return
        if len(set(ids)) != len(ids):
            raise ValueError("VM ids must be unique")
        present = [vm for vm in ids if vm in self._members or vm in self._refs]
        if present:
            raise ValueError(f"VMs already admitted: {present!r}")
        for vm in ids:
            self._members[vm] = None
        self._allocator.apply_membership(added=ids)

    def retire(self, vm_ids: Sequence[str] | str) -> None:
        """Unregister departing VMs from every stateful layer.

        Drops the departed VMs' prediction histories and hands the
        delta to the allocator, so the surviving VMs' horizon windows
        stay warm.
        """
        ids = (vm_ids,) if isinstance(vm_ids, str) else tuple(vm_ids)
        if not ids:
            return
        if len(set(ids)) != len(ids):
            raise ValueError("VM ids must be unique")
        unknown = [vm for vm in ids if vm not in self._members and vm not in self._refs]
        if unknown:
            raise KeyError(f"VMs never admitted or observed: {unknown!r}")
        for vm in ids:
            self._members.pop(vm, None)
        self._refs.drop(ids)
        self._allocator.apply_membership(removed=ids)

    def prime(self, true_references: Mapping[str, float]) -> None:
        """Inject the true upcoming references (consumed by the next predict)."""
        self._refs.prime(true_references)

    def observe(self, window: TraceSet) -> dict[str, float]:
        """UPDATE, part 1: fold an observed window into the histories.

        Returns the window's observed references (useful for logging).
        A window with a non-finite or negative reference is rejected
        with a ``ValueError`` before any history is written.
        """
        return self._refs.observe(window)

    def predict(self, vm_ids: tuple[str, ...] | list[str]) -> dict[str, float]:
        """UPDATE, part 2: predicted next-period references per VM."""
        return self._refs.predict(vm_ids)

    def decide(self, window: TraceSet) -> PeriodDecision:
        """Run one full UPDATE + ALLOCATE + v/f cycle.

        ``window`` is the utilization of the period that just finished;
        the returned decision applies to the *next* period.
        """
        self.observe(window)
        predicted = self.predict(list(window.names))
        placement = self._allocator.allocate(
            window, predicted, self._config.n_cores, self._config.max_servers
        )
        return self._with_frequencies(
            placement, predicted, estimate_active_servers(predicted, self._config.n_cores)
        )

    def evacuate(
        self, decision: PeriodDecision, failed_servers: tuple[int, ...] | list[int]
    ) -> PeriodDecision:
        """Amend a decision after server failures (incremental path).

        Re-places exactly the failed servers' VMs through the
        allocator's incremental ``evacuate`` (see
        :meth:`~repro.core.allocation.CorrelationAwareAllocator.evacuate`),
        then recomputes the Eqn-4 frequency for every active server of
        the amended placement.  Both price pairs against the allocator's
        *latest* cost matrix, so ``decision`` must be the latest
        :meth:`decide`'s.  Prediction state is untouched — the decision
        is amended, not re-made.
        """
        placement = self._allocator.evacuate(
            decision.placement,
            failed_servers,
            decision.predicted_references,
            self._config.n_cores,
            self._config.max_servers,
        )
        return self._with_frequencies(
            placement, decision.predicted_references, decision.estimated_servers
        )

    def _with_frequencies(
        self, placement: Placement, predicted: Mapping[str, float], estimated: int
    ) -> PeriodDecision:
        """Eqn 4 per active server, priced with the latest cost view."""
        view = self._allocator.cost_view()
        frequencies = {
            server: correlation_aware_frequency(
                list(members), predicted, view.cost, self._ladder, self._config.n_cores
            )
            for server, members in placement.by_server().items()
        }
        return PeriodDecision(
            placement=placement,
            frequencies=frequencies,
            predicted_references=predicted,
            estimated_servers=estimated,
            cost_matrix=view,
        )

    def snapshot(self) -> dict:
        """Serializable copy of the manager's mutable state.

        Covers the per-VM reference histories and the allocator's
        cross-period state (exact: rolling-horizon ring and latest cost
        matrix; sharded: the latest plan) — everything :meth:`decide`
        and :meth:`evacuate` read across periods.  The (stateless)
        predictor and the frozen config are reconstructed, not
        serialized.
        """
        state = {"refs": self._refs.snapshot(), "allocator": self._allocator.snapshot()}
        # Only serialized when the membership API is in use, so
        # batch-driven managers keep the legacy snapshot layout (and
        # their checkpoints) byte-identical.
        if self._members:
            state["members"] = list(self._members)
        return state

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` taken from an identical config."""
        self._refs.restore(state["refs"])
        self._allocator.restore(state["allocator"])
        self._members = dict.fromkeys(state.get("members", ()))

    def reset(self) -> None:
        """Drop all accumulated history (fresh deployment).

        Also clears the allocator's cross-period state (horizon parts,
        latest cost matrix or plan), so a fresh deployment starts cold
        and does not pin the previous population's O(N²) state.
        """
        self._refs.reset()
        self._members.clear()
        self._allocator.reset_cache()
