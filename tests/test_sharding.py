"""The two-level sharded allocation tier vs the exact allocator.

The sharded tier (:mod:`repro.core.sharding`) is *approximate but
gated*: its placements must stay valid under the same capacity rules as
the exact Fig-2 allocator, be deterministic for a fixed seed, and keep
the Eqn-4 energy proxy — scored on the **exact** dense cost matrix —
within the committed ``ENERGY_DEVIATION_BOUND`` of the exact
allocator's placement.  A randomized oracle harness replays those
contracts over 20 seeded small-N instances with varied service-cluster
structure, plus the two degenerate corners: one shard (bit-identical to
exact, by construction) and one shard per VM.

Permutation invariance rides along as a property test: the shard
labels and the final assignment are functions of the *population*, never
of the VM order the window happens to arrive in (everything internal
runs in canonical name order).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.allocation import CorrelationAwareAllocator
from repro.core.correlation import CostMatrix
from repro.core.sharding import (
    ENERGY_DEVIATION_BOUND,
    ShardedAllocator,
    ShardingConfig,
    placement_energy_proxy,
    shard_population,
)
from repro.infrastructure.server import XEON_E5410
from repro.traces.datacenter import DatacenterTraceConfig, generate_datacenter_traces
from repro.traces.trace import ReferenceSpec, TraceSet, UtilizationTrace

pytestmark = pytest.mark.timeout(120)

N_CORES = XEON_E5410.n_cores
LEVELS = XEON_E5410.freq_levels_ghz
SPEC = ReferenceSpec()


def _population(seed: int, num_vms: int, num_clusters: int) -> TraceSet:
    config = DatacenterTraceConfig(
        num_vms=num_vms,
        num_clusters=num_clusters,
        duration_s=2 * 3600.0,
        period_s=300.0,
        seed=seed,
        profile_layout="v2",
    )
    window, _membership = generate_datacenter_traces(config)
    return window


def _exact_placement(window: TraceSet, references: dict[str, float]):
    matrix = CostMatrix.from_traces(window)
    placement = CorrelationAwareAllocator().allocate(
        list(window.names),
        references,
        matrix.cost,
        N_CORES,
        None,
        cost_array=matrix.as_array(),
        name_index=matrix.name_index,
    )
    return placement, matrix


def _assert_valid(placement, window: TraceSet, references: dict[str, float]) -> None:
    """Every VM placed exactly once, every server within capacity."""
    assert set(placement.assignment) == set(window.names), "placement dropped VMs"
    for _server, members in placement.by_server().items():
        load = sum(min(max(references[vm], 0.0), float(N_CORES)) for vm in members)
        assert load <= N_CORES + 1e-9, f"server overloaded: {load} > {N_CORES}"


def _permuted(window: TraceSet, seed: int) -> TraceSet:
    order = np.random.default_rng(seed).permutation(window.num_traces)
    names = list(window.names)
    return TraceSet(
        UtilizationTrace(window.matrix[i].copy(), window.period_s, names[i]) for i in order
    )


# (num_vms, num_clusters, num_shards, seed) — None lets the size-target
# heuristic pick the shard count.  Twenty instances spanning N=64..512
# with cluster structure from near-degenerate (2) to fragmented (32).
ORACLE_CASES = [
    (64, 4, 2, 1),
    (64, 8, 4, 2),
    (64, 2, 3, 3),
    (96, 6, 4, 4),
    (128, 4, 2, 5),
    (128, 8, 8, 6),
    (128, 16, 4, 7),
    (192, 6, 6, 8),
    (256, 8, 4, 9),
    (256, 16, 8, 10),
    (256, 4, 16, 11),
    (320, 8, 5, 12),
    (384, 12, 8, 13),
    (512, 8, 8, 14),
    (512, 16, 16, 15),
    (512, 32, 4, 16),
    (64, 4, None, 17),
    (128, 8, None, 18),
    (256, 8, None, 19),
    (512, 16, None, 20),
]


class TestOracleHarness:
    @pytest.mark.parametrize(("num_vms", "clusters", "shards", "seed"), ORACLE_CASES)
    def test_valid_deterministic_and_bounded(self, num_vms, clusters, shards, seed):
        window = _population(seed, num_vms, clusters)
        references = dict(window.references(SPEC))
        sharding = ShardingConfig(num_shards=shards) if shards else ShardingConfig()

        placement = ShardedAllocator(sharding=sharding).allocate(window, references, N_CORES)
        _assert_valid(placement, window, references)

        # Deterministic: a fresh allocator on the same inputs reproduces
        # the placement exactly.
        twin = ShardedAllocator(sharding=sharding).allocate(window, references, N_CORES)
        assert dict(twin.assignment) == dict(placement.assignment)
        assert twin.num_servers == placement.num_servers

        # Bounded: the sharded placement's energy proxy, scored on the
        # exact dense matrix, stays within the committed bound.
        exact, matrix = _exact_placement(window, references)
        exact_proxy = placement_energy_proxy(exact, references, matrix.cost, LEVELS, N_CORES)
        sharded_proxy = placement_energy_proxy(
            placement, references, matrix.cost, LEVELS, N_CORES
        )
        deviation = abs(sharded_proxy / exact_proxy - 1.0)
        assert deviation <= ENERGY_DEVIATION_BOUND, (
            f"N={num_vms} shards={shards} seed={seed}: energy proxy deviates "
            f"{deviation:.4f}, bound is {ENERGY_DEVIATION_BOUND}"
        )


class TestDegenerateShardCounts:
    @pytest.mark.parametrize("seed", [3, 7])
    def test_single_shard_is_bit_identical_to_exact(self, seed):
        window = _population(seed, 128, 8)
        references = dict(window.references(SPEC))
        exact, _matrix = _exact_placement(window, references)
        allocator = ShardedAllocator(sharding=ShardingConfig(num_shards=1))
        placement = allocator.allocate(window, references, N_CORES)
        assert allocator.last_num_shards == 1
        assert dict(placement.assignment) == dict(exact.assignment)
        assert placement.num_servers == exact.num_servers

    def test_one_shard_per_vm_stays_valid(self):
        window = _population(21, 96, 6)
        references = dict(window.references(SPEC))
        allocator = ShardedAllocator(sharding=ShardingConfig(num_shards=96))
        placement = allocator.allocate(window, references, N_CORES)
        _assert_valid(placement, window, references)

    def test_shard_count_never_exceeds_population(self):
        window = _population(22, 16, 4)
        references = dict(window.references(SPEC))
        allocator = ShardedAllocator(sharding=ShardingConfig(num_shards=64))
        allocator.allocate(window, references, N_CORES)
        assert allocator.last_num_shards <= 16


class TestPermutationInvariance:
    """Sharding is a function of the population, not the arrival order."""

    @pytest.mark.parametrize("seed", [5, 9])
    def test_assignment_is_permutation_invariant(self, seed):
        window = _population(seed, 128, 8)
        shuffled = _permuted(window, seed + 100)
        references = dict(window.references(SPEC))
        sharding = ShardingConfig(num_shards=4)

        a = ShardedAllocator(sharding=sharding).allocate(window, references, N_CORES)
        b = ShardedAllocator(sharding=sharding).allocate(shuffled, references, N_CORES)
        assert dict(a.assignment) == dict(b.assignment)
        assert a.num_servers == b.num_servers

    def test_labels_are_permutation_invariant(self):
        window = _population(13, 96, 6)
        shuffled = _permuted(window, 42)
        config = ShardingConfig(num_shards=3)

        labels = shard_population(window, config)
        labels_shuffled = shard_population(shuffled, config)
        by_name = dict(zip(window.names, labels, strict=True))
        by_name_shuffled = dict(zip(shuffled.names, labels_shuffled, strict=True))
        assert by_name == by_name_shuffled

    def test_labels_do_not_depend_on_references(self):
        """The allocator shards by signatures alone, exactly as the probe.

        ``TestShardedEvacuate`` in ``tests/test_faults.py`` finds the
        allocator's shards through :func:`shard_population`, so the
        allocator's plan labels must match it whatever the references.
        """
        window = _population(17, 128, 8)
        config = ShardingConfig(num_shards=4)
        expected = dict(zip(window.names, shard_population(window, config), strict=True))
        rng = np.random.default_rng(17)
        peaks = dict(window.references(SPEC))
        scaled = {vm: float(rng.uniform(0.1, 1.0)) * ref for vm, ref in peaks.items()}
        for references in (peaks, scaled):
            allocator = ShardedAllocator(sharding=config)
            allocator.allocate(window, references, N_CORES)
            plan = allocator.snapshot()["plan"]
            labels = dict(zip(plan["names"], plan["labels"].tolist(), strict=True))
            assert labels == expected


class TestShardingConfigValidation:
    def test_defaults_are_valid(self):
        config = ShardingConfig()
        assert config.resolve_num_shards(1000) >= 1

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), 2.5])
    def test_rejects_bad_num_shards(self, bad):
        with pytest.raises(ValueError):
            ShardingConfig(num_shards=bad)

    @pytest.mark.parametrize("bad", [0, -3, float("nan")])
    def test_rejects_bad_target_shard_vms(self, bad):
        with pytest.raises(ValueError):
            ShardingConfig(target_shard_vms=bad)

    @pytest.mark.parametrize("bad", [0.5, 0.0, float("nan")])
    def test_rejects_bad_max_shard_fill(self, bad):
        with pytest.raises(ValueError):
            ShardingConfig(max_shard_fill=bad)

    def test_resolve_caps_at_population(self):
        assert ShardingConfig(num_shards=10).resolve_num_shards(4) == 4
        assert ShardingConfig(target_shard_vms=10).resolve_num_shards(25) == 3
