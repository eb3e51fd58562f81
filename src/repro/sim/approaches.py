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
from repro.core.allocation import AllocationConfig
from repro.core.manager import ManagerConfig, PowerManager
from repro.core.sharding import ShardingConfig
from repro.core.placement import Placement
from repro.core.vf_control import peak_sum_frequency
# Kept importable here: perfbench's tracer patches this module's name.
from repro.core.vf_control import correlation_aware_frequency  # noqa: F401
from repro.infrastructure.dvfs import FrequencyLadder, StaticVfSetting
from repro.prediction.predictors import LastValuePredictor, Predictor, ReferenceHistory
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

    The approach is a thin adapter over
    :class:`~repro.core.manager.PowerManager`, which runs the whole
    UPDATE → ALLOCATE → Eqn-4 loop; its arguments become a
    :class:`~repro.core.manager.ManagerConfig`, so the same validation
    applies (``allocator="sharded"`` uses single-window costs and needs
    ``horizon_periods=1``).
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
        self.name = "Proposed"
        config = ManagerConfig(
            n_cores=n_cores,
            freq_levels_ghz=freq_levels_ghz,
            reference=reference or ReferenceSpec(),
            allocation=allocation or AllocationConfig(),
            max_servers=max_servers,
            default_reference=default_reference,
            horizon_periods=horizon_periods,
            horizon_mode=horizon_mode,
            allocator=allocator,
            sharding=sharding,
        )
        self._manager = PowerManager(config, predictor)

    def prime_oracle(self, true_references: dict[str, float]) -> None:
        """Inject the true upcoming references (oracle ablation mode)."""
        self._manager.prime(true_references)

    def decide(self, window: TraceSet) -> ApproachDecision:
        decision = self._manager.decide(window)
        return ApproachDecision(
            decision.placement, decision.frequencies, decision.predicted_references
        )

    def evacuate(
        self,
        placement: Placement,
        failed_servers: tuple[int, ...],
        references: Mapping[str, float],
        num_servers: int,
    ) -> Placement:
        """Incrementally re-place the failed servers' VMs (see
        :meth:`~repro.core.manager.PowerManager.evacuate`)."""
        return self._manager.evacuate(placement, failed_servers, references, num_servers)

    def reset(self) -> None:
        self._manager.reset()

    def snapshot(self) -> dict:
        """Serializable copy of all cross-period state (for checkpoints)."""
        return self._manager.snapshot()

    def restore(self, state: dict) -> None:
        """Reinstall a :meth:`snapshot` taken from an identical config."""
        self._manager.restore(state)


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
        self._refs = ReferenceHistory(
            self._reference, predictor or LastValuePredictor(default_reference), default_reference
        )

    def prime_oracle(self, true_references: dict[str, float]) -> None:
        """Inject the true upcoming references (oracle ablation mode)."""
        self._refs.prime(true_references)

    def decide(self, window: TraceSet) -> ApproachDecision:
        self._refs.observe(window)
        predicted = self._refs.predict(window.names)
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
        self._offpeak_refs = ReferenceHistory(
            offpeak_spec, predictor or LastValuePredictor(default_reference), default_reference
        )
        self._peak_refs = ReferenceHistory(
            peak_spec, peak_predictor or LastValuePredictor(default_reference), default_reference
        )

    def prime_oracle(self, true_references: dict[str, float]) -> None:
        """Inject true upcoming *peak* references (oracle ablation mode).

        The off-peak provisioning size keeps using the predictor: PCP's
        buffer sizing is what the oracle study isolates.
        """
        self._peak_refs.prime(true_references)

    def decide(self, window: TraceSet) -> ApproachDecision:
        # Both references are checked before either keeper appends, so a
        # window that spoils only one of them is recorded by neither.
        offpeak_observed = self._offpeak_refs.check(window)
        self._peak_refs.observe(window)
        self._offpeak_refs.record(offpeak_observed)
        offpeak = self._offpeak_refs.predict(window.names)
        peak = self._peak_refs.predict(window.names)
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
