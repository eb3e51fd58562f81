"""The three compared consolidation approaches behind a common interface.

Each approach consumes one observed monitoring window per placement
period and produces a placement plus per-server static frequency
settings.  They differ exactly where the paper says they differ:

* :class:`ProposedApproach` — correlation-aware allocation (Fig 2) and
  the Eqn-4 correlation-discounted frequency.
* :class:`BfdApproach` — best-fit decreasing on predicted peaks and
  peak-sum frequency (no correlation awareness anywhere).
* :class:`PcpApproach` — Verma et al.'s envelope clustering with off-peak
  provisioning and a shared peak buffer; frequency provisioned for the
  off-peak sum plus the buffer.
* :class:`FfdApproach` — first-fit decreasing; not in the paper's tables,
  used by the ablation benches to isolate the packing-order contribution.

All approaches share the same prediction machinery (last-value by
default, per the paper), so differences in the results are attributable
to placement and v/f policy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Protocol

from repro.baselines.bfd import best_fit_decreasing
from repro.baselines.ffd import first_fit_decreasing
from repro.baselines.pcp import PcpConfig, peak_clustering_placement
from repro.core.allocation import AllocationConfig, CorrelationAwareAllocator
from repro.core.correlation import RollingCostHorizon
from repro.core.sharding import ShardedAllocator, ShardingConfig
from repro.core.placement import Placement
from repro.core.vf_control import correlation_aware_frequency, peak_sum_frequency
from repro.infrastructure.dvfs import FrequencyLadder, StaticVfSetting
from repro.prediction.predictors import (
    LastValuePredictor,
    Predictor,
    append_bounded,
    history_bound,
)
from repro.traces.trace import ReferenceSpec, TraceSet

__all__ = [
    "ApproachDecision",
    "ConsolidationApproach",
    "ProposedApproach",
    "BfdApproach",
    "FfdApproach",
    "PcpApproach",
]


@dataclass(frozen=True)
class ApproachDecision:
    """One period's placement and static frequency plan."""

    placement: Placement
    frequencies: Mapping[int, StaticVfSetting]
    predicted_references: Mapping[str, float]
    info: Mapping[str, object] = field(default_factory=dict)


class ConsolidationApproach(Protocol):
    """A consolidation scheme the replay engine can drive."""

    name: str

    def decide(self, window: TraceSet) -> ApproachDecision:
        """Observe the finished period's window, plan the next period."""
        ...

    def reset(self) -> None:
        """Drop all cross-period state (fresh replay)."""
        ...


class _ReferenceHistory:
    """Shared per-VM reference history + prediction helper.

    Supports *oracle priming*: the replay engine may inject the true
    upcoming references (see ``ReplayConfig.oracle``), which then replace
    the predictor's output for exactly one decision.  This separates
    placement quality from predictor error in the ablation experiments.

    Histories are bounded to the predictor's declared ``history_window``
    (see :class:`~repro.prediction.predictors.Predictor`): a replay over
    thousands of periods must not grow per-VM lists forever when the
    predictor only ever reads the last few values.  Predictors without
    the attribute, or declaring ``None``, keep the full history.
    """

    def __init__(self, spec: ReferenceSpec, predictor: Predictor, default: float) -> None:
        self._spec = spec
        self._predictor = predictor
        self._default = default
        self._bound = history_bound(predictor)
        self._history: dict[str, list[float]] = {}
        self._primed: dict[str, float] | None = None

    def prime(self, true_references: dict[str, float]) -> None:
        """Inject the true upcoming references (consumed by next predict)."""
        self._primed = dict(true_references)

    def observe_and_predict(self, window: TraceSet) -> dict[str, float]:
        observed = window.references(self._spec)
        primed = self._primed
        self._primed = None
        predictions: dict[str, float] = {}
        for vm, value in observed.items():
            history = self._history.setdefault(vm, [])
            append_bounded(history, value, self._bound)
            if primed is not None and vm in primed:
                predictions[vm] = primed[vm]
            else:
                predictions[vm] = self._predictor.predict(history)
        return predictions

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


class ProposedApproach:
    """The paper's scheme: Fig-2 allocation + Eqn-4 frequency.

    The pairwise cost matrix is estimated over a rolling *horizon* of the
    last ``horizon_periods`` monitoring windows, not just the most recent
    one.  Section IV-A's streaming formulation measures correlation
    "across a certain time horizon"; a multi-period horizon matters in
    practice because a single window can transiently de-correlate a pair
    that usually peaks together — trusting that optimistic snapshot both
    co-locates the pair and over-discounts the frequency, exactly when it
    is about to surge jointly.  Peaks over a longer horizon are
    conservative by construction (they can only grow), so the discount
    only engages for pairs whose de-correlation is *stable*.

    The horizon bookkeeping lives in
    :class:`~repro.core.correlation.RollingCostHorizon`.  Peak-mode
    references fold per-window parts bit-exactly regardless of
    ``horizon_mode``; percentile references rebuild the concatenated
    horizon under ``horizon_mode="exact"`` (the default, bit-identical
    reference behaviour) or fold per-window quantile marker states under
    ``horizon_mode="p2"`` — the approximate-but-gated O(N²W)-per-period
    path the QoS sweep opts into.
    """

    def __init__(
        self,
        n_cores: int,
        freq_levels_ghz: tuple[float, ...],
        max_servers: int | None = None,
        reference: ReferenceSpec | None = None,
        allocation: AllocationConfig | None = None,
        predictor: Predictor | None = None,
        default_reference: float = 1.0,
        horizon_periods: int = 3,
        horizon_mode: str = "exact",
        allocator: str = "exact",
        sharding: ShardingConfig | None = None,
    ) -> None:
        if allocator not in ("exact", "sharded"):
            raise ValueError(f"allocator must be 'exact' or 'sharded', got {allocator!r}")
        self.name = "Proposed"
        self._n_cores = n_cores
        self._ladder = FrequencyLadder(freq_levels_ghz)
        self._max_servers = max_servers
        self._reference = reference or ReferenceSpec()
        self._mode = allocator
        # Either backend answers to the same lifecycle (reset_cache /
        # snapshot / restore), so the audit and checkpoint layers — which
        # duck-type the ``_allocator`` attribute — drive both unchanged.
        if allocator == "sharded":
            self._allocator = ShardedAllocator(allocation, sharding, self._reference)
        else:
            self._allocator = CorrelationAwareAllocator(allocation)
        self._refs = _ReferenceHistory(
            self._reference, predictor or LastValuePredictor(default_reference), default_reference
        )
        self._horizon = RollingCostHorizon(self._reference, horizon_periods, horizon_mode)
        # Fingerprint of the placed population: a swap to different VM
        # names drops the allocator's cross-period reindex cache, whose
        # O(N²) snapshot would otherwise pin a dead population in memory.
        self._population: tuple[str, ...] | None = None
        # Latest cost matrix, kept for the evacuation hook (the fault
        # layer re-places VMs against the same period's correlations).
        self._last_matrix = None

    def prime_oracle(self, true_references: dict[str, float]) -> None:
        """Inject the true upcoming references (oracle ablation mode)."""
        self._refs.prime(true_references)

    def decide(self, window: TraceSet) -> ApproachDecision:
        predicted = self._refs.observe_and_predict(window)
        if self._population != window.names:
            if self._population is not None:
                # Sharded mode: this drops every *per-shard* reindex
                # cache, not just a global one — each would otherwise pin
                # a dead population's O(n²) permuted matrix in memory.
                self._allocator.reset_cache()
            self._population = window.names
        if self._mode == "sharded":
            # Single-window costs: sharding re-derives its clusters from
            # the current window each period, so the rolling horizon
            # (whose fold produces a *dense* matrix) deliberately stays
            # out of this path.
            placement = self._allocator.allocate(
                window, predicted, self._n_cores, self._max_servers
            )
            view = self._allocator.cost_view()
            self._last_matrix = view
            frequencies = {
                server: correlation_aware_frequency(
                    list(members), predicted, view.cost, self._ladder, self._n_cores
                )
                for server, members in placement.by_server().items()
            }
            return ApproachDecision(placement, frequencies, predicted)
        matrix = self._horizon.push(window)
        self._last_matrix = matrix
        placement = self._allocator.allocate(
            list(window.names),
            predicted,
            matrix.cost,
            self._n_cores,
            self._max_servers,
            cost_array=matrix.as_array(),
            name_index=matrix.name_index,
        )
        frequencies = {
            server: correlation_aware_frequency(
                list(members), predicted, matrix.cost, self._ladder, self._n_cores
            )
            for server, members in placement.by_server().items()
        }
        return ApproachDecision(placement, frequencies, predicted)

    def evacuate(
        self,
        placement: Placement,
        failed_servers: tuple[int, ...],
        references: Mapping[str, float],
        num_servers: int,
    ) -> Placement:
        """Incrementally re-place the failed servers' VMs.

        The fault layer's hook (see :func:`repro.sim.faults.evacuate_fleet`):
        delegates to the allocator's incremental
        :meth:`~repro.core.allocation.CorrelationAwareAllocator.evacuate`
        against the cost matrix of the latest :meth:`decide`, whose
        reindex cache it reuses.
        """
        matrix = self._last_matrix
        if matrix is None:
            raise RuntimeError("evacuate() requires a prior decide()")
        if self._mode == "sharded":
            # The sharded path prices evacuees through its cost view and
            # invalidates the reindex cache of every shard the evacuation
            # touches (failed or receiving) — see ShardedAllocator.
            return self._allocator.evacuate(
                placement, failed_servers, references, self._n_cores, num_servers
            )
        return self._allocator.evacuate(
            placement,
            failed_servers,
            references,
            self._n_cores,
            num_servers,
            cost_array=matrix.as_array(),
            name_index=matrix.name_index,
        )

    def reset(self) -> None:
        self._refs.reset()
        self._allocator.reset_cache()
        self._horizon.reset()
        self._population = None
        self._last_matrix = None

    def snapshot(self) -> dict:
        """Serializable copy of all cross-period state (for checkpoints).

        ``_last_matrix`` is an immutable :class:`CostMatrix` (read-only
        backing array), so holding a reference rather than a deep copy
        is safe.  In sharded mode it is a view over the allocator's own
        plan, so it is *not* serialized — :meth:`restore` re-derives it,
        keeping the snapshot canonical (byte-identical round trips).
        """
        return {
            "refs": self._refs.snapshot(),
            "horizon": self._horizon.snapshot(),
            "allocator": self._allocator.snapshot(),
            "population": self._population,
            "last_matrix": None if self._mode == "sharded" else self._last_matrix,
        }

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` taken from an identical config."""
        self._refs.restore(state["refs"])
        self._horizon.restore(state["horizon"])
        self._allocator.restore(state["allocator"])
        self._population = state["population"]
        if self._mode == "sharded":
            allocator = self._allocator
            self._last_matrix = (
                allocator.cost_view() if allocator.last_num_shards else None
            )
        else:
            self._last_matrix = state["last_matrix"]


class _PackingApproach:
    """Common body of the correlation-unaware packing baselines."""

    def __init__(
        self,
        name: str,
        packer,
        n_cores: int,
        freq_levels_ghz: tuple[float, ...],
        max_servers: int | None = None,
        reference: ReferenceSpec | None = None,
        predictor: Predictor | None = None,
        default_reference: float = 1.0,
    ) -> None:
        self.name = name
        self._packer = packer
        self._n_cores = n_cores
        self._ladder = FrequencyLadder(freq_levels_ghz)
        self._max_servers = max_servers
        self._reference = reference or ReferenceSpec()
        self._refs = _ReferenceHistory(
            self._reference, predictor or LastValuePredictor(default_reference), default_reference
        )

    def prime_oracle(self, true_references: dict[str, float]) -> None:
        """Inject the true upcoming references (oracle ablation mode)."""
        self._refs.prime(true_references)

    def decide(self, window: TraceSet) -> ApproachDecision:
        predicted = self._refs.observe_and_predict(window)
        placement = self._packer(
            list(window.names), predicted, self._n_cores, self._max_servers
        )
        frequencies = {
            server: peak_sum_frequency(list(members), predicted, self._ladder, self._n_cores)
            for server, members in placement.by_server().items()
        }
        return ApproachDecision(placement, frequencies, predicted)

    def reset(self) -> None:
        self._refs.reset()

    def snapshot(self) -> dict:
        return {"refs": self._refs.snapshot()}

    def restore(self, state: dict) -> None:
        self._refs.restore(state["refs"])


class BfdApproach(_PackingApproach):
    """Best-fit decreasing + peak-sum static frequency (Table II's BFD)."""

    def __init__(self, n_cores: int, freq_levels_ghz: tuple[float, ...], **kwargs) -> None:
        super().__init__("BFD", best_fit_decreasing, n_cores, freq_levels_ghz, **kwargs)


class FfdApproach(_PackingApproach):
    """First-fit decreasing + peak-sum static frequency (ablation only)."""

    def __init__(self, n_cores: int, freq_levels_ghz: tuple[float, ...], **kwargs) -> None:
        super().__init__("FFD", first_fit_decreasing, n_cores, freq_levels_ghz, **kwargs)


class PcpApproach:
    """Peak Clustering-based Placement (Table II's PCP [6]).

    Predicts *two* references per VM — the off-peak provisioning size and
    the peak (buffer sizing) — with the same predictor family as the other
    approaches, clusters on the observed window's envelopes, and
    provisions frequency for the off-peak sum plus the shared buffer.
    """

    def __init__(
        self,
        n_cores: int,
        freq_levels_ghz: tuple[float, ...],
        max_servers: int | None = None,
        pcp: PcpConfig | None = None,
        predictor: Predictor | None = None,
        peak_predictor: Predictor | None = None,
        default_reference: float = 1.0,
    ) -> None:
        self.name = "PCP"
        self._n_cores = n_cores
        self._ladder = FrequencyLadder(freq_levels_ghz)
        self._max_servers = max_servers
        self._pcp = pcp or PcpConfig()
        offpeak_spec = ReferenceSpec(self._pcp.offpeak_percentile)
        peak_spec = ReferenceSpec(100.0)
        self._offpeak_refs = _ReferenceHistory(
            offpeak_spec, predictor or LastValuePredictor(default_reference), default_reference
        )
        self._peak_refs = _ReferenceHistory(
            peak_spec, peak_predictor or LastValuePredictor(default_reference), default_reference
        )

    def prime_oracle(self, true_references: dict[str, float]) -> None:
        """Inject true upcoming *peak* references (oracle ablation mode).

        The off-peak provisioning size keeps using the predictor: PCP's
        buffer sizing is what the oracle study isolates.
        """
        self._peak_refs.prime(true_references)

    def decide(self, window: TraceSet) -> ApproachDecision:
        offpeak = self._offpeak_refs.observe_and_predict(window)
        peak = self._peak_refs.observe_and_predict(window)
        result = peak_clustering_placement(
            window, offpeak, peak, self._n_cores, self._pcp, self._max_servers
        )
        placement = result.placement
        cluster_of = {
            vm: index for index, cluster in enumerate(result.clusters) for vm in cluster
        }
        frequencies: dict[int, StaticVfSetting] = {}
        for server, members in placement.by_server().items():
            # PCP provisions capacity for off-peak sum + shared buffer
            # (same-cluster excursions add up, the worst cluster sizes the
            # buffer), so its static frequency targets exactly that.
            committed = sum(offpeak[vm] for vm in members)
            per_cluster: dict[int, float] = {}
            for vm in members:
                excursion = max(peak[vm] - offpeak[vm], 0.0)
                key = cluster_of[vm]
                per_cluster[key] = per_cluster.get(key, 0.0) + excursion
            buffer = max(per_cluster.values(), default=0.0)
            target = (committed + buffer) / self._n_cores * self._ladder.fmax_ghz
            frequencies[server] = StaticVfSetting(
                freq_ghz=self._ladder.quantize_up(target), target_ghz=target
            )
        return ApproachDecision(
            placement,
            frequencies,
            peak,
            {"num_clusters": result.num_clusters, "clusters": result.clusters},
        )

    def reset(self) -> None:
        self._offpeak_refs.reset()
        self._peak_refs.reset()

    def snapshot(self) -> dict:
        return {
            "offpeak_refs": self._offpeak_refs.snapshot(),
            "peak_refs": self._peak_refs.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._offpeak_refs.restore(state["offpeak_refs"])
        self._peak_refs.restore(state["peak_refs"])
