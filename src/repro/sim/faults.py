"""Seeded fault injection for the replay engine (an extension).

The paper evaluates consolidation on a datacenter that never breaks;
this module makes the fleet breakable so the energy argument can be
weighed against availability.  Three fault kinds, all at placement-period
granularity:

* **crashes** — a server goes dark for the period it crashes in;
* **delayed recoveries** — a crashed server stays down for a geometric
  number of additional periods (``mean_downtime_periods``);
* **stragglers** — a healthy server transiently delivers only a fraction
  of its capacity for one period (``degraded_capacity_factor``).

Determinism contract: a :class:`FaultSchedule` is a pure function of
``(FaultConfig, num_servers, num_periods)``.  All randomness comes from
one ``numpy.random.default_rng(config.seed)`` generator in a *versioned
draw layout* (``schedule_layout``), mirroring the trace generators'
``stream_layout``/``profile_layout`` convention: layout ``"v1"`` draws
three fixed-shape blocks (crash uniforms, downtime geometrics, straggler
uniforms) regardless of the configured rates, so the schedule never
depends on trace content, worker count, or call order.  New layouts are
append-only; existing ones are frozen.

Evacuation contract (used by :func:`repro.sim.engine.replay`): when a
period's decision places VMs on servers the schedule marks failed, the
engine re-places exactly those VMs onto the surviving fleet *after* the
approach's decision — approaches stay fault-oblivious, so the fault-free
replay path is bit-identical to an engine without this module.
Correlation-aware approaches expose an incremental ``evacuate`` hook
that only places (:meth:`repro.core.manager.PowerManager.evacuate`: one
rule, :meth:`repro.core.allocation.CorrelationAwareAllocator.evacuate`,
under either allocator backend); everything else falls back to the
best-fit-decreasing re-placement here.  Either way this module bumps the
receiving servers' static frequencies, conservatively (peak-sum target,
quantized up, never lowered), and evacuation may overcommit a surviving
server — under capacity loss a violated QoS target beats an unhosted VM.
VMs are dropped (reported as unserved demand) only when no surviving
server exists at all.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.placement import Placement
from repro.infrastructure.dvfs import FrequencyLadder, StaticVfSetting
from repro.sim.migration import MigrationCostModel

__all__ = ["FaultConfig", "FaultSchedule", "evacuate_fleet"]

#: Capacity-fit slack shared with the allocators.
_FIT_EPS = 1e-12

#: Known draw layouts (append-only; see the module docstring).
_LAYOUTS = ("v1",)


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection parameters (disabled by default in the engine).

    Parameters
    ----------
    seed:
        Seed of the schedule's dedicated RNG stream.
    crash_rate:
        Per-server, per-period probability of a fresh crash (a server
        that is already down cannot crash again until it recovers).
    mean_downtime_periods:
        Mean number of *additional* periods a crashed server stays down
        beyond the crash period (geometrically distributed; ``0.0``
        means every crash recovers after exactly one period).
    degraded_rate:
        Per-server, per-period probability that a *healthy* server runs
        degraded (straggler) for that period.
    degraded_capacity_factor:
        Capacity multiplier applied to a degraded server, in ``(0, 1]``.
    migration:
        Cost model charged once per evacuated VM.
    schedule_layout:
        RNG draw-layout version (``"v1"``); append-only like the trace
        generators' stream layouts.
    """

    seed: int = 0
    crash_rate: float = 0.01
    mean_downtime_periods: float = 1.0
    degraded_rate: float = 0.0
    degraded_capacity_factor: float = 0.5
    migration: MigrationCostModel = field(default_factory=MigrationCostModel)
    schedule_layout: str = "v1"

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ValueError(f"crash_rate must lie in [0, 1], got {self.crash_rate}")
        if self.mean_downtime_periods < 0.0:
            raise ValueError("mean_downtime_periods must be non-negative")
        if not 0.0 <= self.degraded_rate <= 1.0:
            raise ValueError(f"degraded_rate must lie in [0, 1], got {self.degraded_rate}")
        if not 0.0 < self.degraded_capacity_factor <= 1.0:
            raise ValueError(
                f"degraded_capacity_factor must lie in (0, 1], "
                f"got {self.degraded_capacity_factor}"
            )
        if self.schedule_layout not in _LAYOUTS:
            raise ValueError(
                f"unknown schedule_layout {self.schedule_layout!r}; known: {_LAYOUTS}"
            )


class FaultSchedule:
    """A materialised, immutable fault timeline for one replay.

    ``failed[p, s]`` says server ``s`` is down during period ``p``;
    ``capacity_scale[p, s]`` multiplies the server's capacity (1.0 when
    healthy, ``degraded_capacity_factor`` while a straggler — never both
    with ``failed``).  Period indices are the replay engine's absolute
    period indices, so period 0 (the warm-up period) carries draws but is
    never read by the engine.
    """

    __slots__ = ("config", "failed", "capacity_scale")

    def __init__(
        self, config: FaultConfig, failed: np.ndarray, capacity_scale: np.ndarray
    ) -> None:
        self.config = config
        failed.flags.writeable = False
        capacity_scale.flags.writeable = False
        self.failed = failed
        self.capacity_scale = capacity_scale

    @classmethod
    def build(
        cls, config: FaultConfig, num_servers: int, num_periods: int
    ) -> FaultSchedule:
        """Materialise the schedule for a ``(servers, periods)`` geometry.

        Layout ``"v1"`` draws, in order: crash uniforms
        ``(num_periods, num_servers)``, downtime geometrics of the same
        shape, straggler uniforms of the same shape.  Every block is
        drawn in full regardless of the configured rates, so the stream
        position — and therefore the schedule — depends only on the
        config and the geometry.
        """
        if num_servers < 1:
            raise ValueError("num_servers must be positive")
        if num_periods < 1:
            raise ValueError("num_periods must be positive")
        rng = np.random.default_rng(config.seed)
        shape = (num_periods, num_servers)
        crash_u = rng.random(shape)
        # Additional downtime periods beyond the crash period: geometric
        # with mean ``mean_downtime_periods`` (p = 1 / (1 + mean); the
        # generator's geometric is >= 1, so subtract the crash period).
        downtime = rng.geometric(1.0 / (1.0 + config.mean_downtime_periods), shape) - 1
        straggler_u = rng.random(shape)

        failed = np.zeros(shape, dtype=bool)
        down_until = np.full(num_servers, -1, dtype=np.int64)
        for period in range(num_periods):
            fresh = (crash_u[period] < config.crash_rate) & (down_until < period)
            down_until = np.where(fresh, period + downtime[period], down_until)
            failed[period] = down_until >= period
        capacity_scale = np.where(
            ~failed & (straggler_u < config.degraded_rate),
            config.degraded_capacity_factor,
            1.0,
        )
        return cls(config, failed, capacity_scale)

    @property
    def num_periods(self) -> int:
        return int(self.failed.shape[0])

    @property
    def num_servers(self) -> int:
        return int(self.failed.shape[1])

    def failed_at(self, period: int) -> np.ndarray:
        """Read-only boolean fleet mask for one period."""
        return self.failed[period]

    def scale_at(self, period: int) -> np.ndarray:
        """Read-only per-server capacity multipliers for one period."""
        return self.capacity_scale[period]

    def failed_server_periods(self, first_period: int = 0) -> int:
        """Total (server, period) cells down from ``first_period`` on."""
        return int(self.failed[first_period:].sum())

    def content_hash(self) -> str:
        """SHA-256 over the realized schedule arrays.

        The schedule is a pure function of ``(config, fleet, horizon)``,
        so a resumed replay rebuilds it from scratch; the hash — stored
        in each checkpoint's metadata — proves the rebuild drew the
        *same* schedule the checkpointed run was following (a changed
        seed, rate, or RNG stream layout changes the hash and forces a
        cold start instead of a silently divergent resume).
        """
        digest = hashlib.sha256()
        digest.update(repr(self.failed.shape).encode())
        digest.update(self.failed.tobytes())
        digest.update(self.capacity_scale.tobytes())
        return digest.hexdigest()


def _clamped_refs(
    vm_ids: Sequence[str], references: Mapping[str, float], capacity: float
) -> dict[str, float]:
    """References clamped into ``[0, capacity]`` (allocator convention)."""
    return {
        vm: min(max(float(references.get(vm, 0.0)), 0.0), capacity) for vm in vm_ids
    }


def _greedy_evacuate(
    placement: Placement,
    failed: frozenset[int] | set[int],
    refs: Mapping[str, float],
    capacity: float,
    num_servers: int,
) -> Placement:
    """Best-fit-decreasing re-placement of the failed servers' VMs.

    The fallback used for approaches without an ``evacuate`` hook: the
    evacuees (descending reference, then name — the FFD discipline) go to
    the surviving server with the *least* free capacity that still fits
    them; when nothing fits, to the survivor with the most free capacity
    (overcommit); when no survivor exists, they stay unplaced.
    """
    free = {
        server: capacity for server in range(num_servers) if server not in failed
    }
    evacuees = []
    for vm, server in placement.assignment.items():
        if server in failed:
            evacuees.append(vm)
        else:
            free[server] -= refs[vm]
    targets: dict[str, int] = {}
    for vm in sorted(evacuees, key=lambda vm: (-refs[vm], vm)):
        demand = refs[vm]
        fitting = [s for s in free if demand <= free[s] + _FIT_EPS]
        if fitting:
            target = min(fitting, key=lambda s: (free[s], s))
        elif free:
            target = min(free, key=lambda s: (-free[s], s))
        else:
            continue
        free[target] -= demand
        targets[vm] = target
    assignment = {}
    for vm, server in placement.assignment.items():
        if server in failed:
            if vm in targets:
                assignment[vm] = targets[vm]
        else:
            assignment[vm] = server
    return Placement(assignment, num_servers=max(num_servers, placement.num_servers))


def _bump_frequencies(
    placement: Placement,
    frequencies: Mapping[int, StaticVfSetting],
    moved: Sequence[str],
    refs: Mapping[str, float],
    n_cores: int,
    ladder: FrequencyLadder,
    failed: frozenset[int] | set[int],
) -> dict[int, StaticVfSetting]:
    """Static plan after an evacuation: receivers bumped, never lowered.

    Receiving servers get at least the peak-sum frequency of their new
    membership (quantized up) — conservative on purpose: the decision's
    correlation-aware discount was computed for the pre-fault membership
    and does not transfer.  Failed servers drop out of the plan.
    """
    updated = {
        server: setting
        for server, setting in frequencies.items()
        if server not in failed
    }
    for server in sorted({placement.server_of(vm) for vm in moved}):
        committed = sum(refs[vm] for vm in placement.vms_on(server))
        target = committed / n_cores * ladder.fmax_ghz
        quantized = ladder.quantize_up(target)
        current = updated.get(server)
        if current is None or quantized > current.freq_ghz:
            updated[server] = StaticVfSetting(freq_ghz=quantized, target_ghz=target)
    return updated


def evacuate_fleet(
    placement: Placement,
    frequencies: Mapping[int, StaticVfSetting],
    failed_mask: np.ndarray,
    references: Mapping[str, float],
    n_cores: int,
    num_servers: int,
    ladder: FrequencyLadder,
    approach: object | None = None,
) -> tuple[Placement, Mapping[int, StaticVfSetting], tuple[str, ...], tuple[str, ...]]:
    """Move every VM off the failed servers; returns the amended plan.

    Returns ``(placement, frequencies, moved, unplaced)``: the amended
    placement, the amended static-frequency plan, the evacuated VM ids
    (one migration each), and the VM ids that could not be hosted
    anywhere (no surviving server — their demand goes unserved).

    When ``approach`` exposes an ``evacuate(placement, failed_servers,
    references, num_servers)`` hook, re-placement is delegated to it
    (the correlation-aware incremental path); otherwise the best-fit
    fallback above runs.  Either way the hook only decides *where*
    evacuees go — the frequency bump and the accounting stay here, so
    every approach is charged under the same contract.
    """
    failed = frozenset(int(s) for s in np.flatnonzero(failed_mask))
    if not failed:
        return placement, frequencies, (), ()
    evacuees = tuple(
        vm for vm, server in placement.assignment.items() if server in failed
    )
    if not evacuees:
        return placement, frequencies, (), ()
    capacity = float(n_cores)
    refs = _clamped_refs(placement.vm_ids, references, capacity)
    if approach is not None and hasattr(approach, "evacuate"):
        failed_servers = tuple(sorted(failed))
        new_placement = approach.evacuate(
            placement, failed_servers, references, num_servers
        )
    else:
        new_placement = _greedy_evacuate(
            placement, failed, refs, capacity, num_servers
        )
    stranded = [
        vm
        for vm in evacuees
        if vm in new_placement.assignment and new_placement.assignment[vm] in failed
    ]
    if stranded:
        raise ValueError(f"evacuation left VMs on failed servers: {stranded}")
    moved = tuple(vm for vm in evacuees if vm in new_placement.assignment)
    unplaced = tuple(vm for vm in evacuees if vm not in new_placement.assignment)
    new_frequencies = _bump_frequencies(
        new_placement, frequencies, moved, refs, n_cores, ladder, failed
    )
    return new_placement, new_frequencies, moved, unplaced
