"""Fleet-size scaling of the vectorized kernels (build / update / allocate).

The paper's efficiency argument (Section IV-A) is that the Eqn-1 cost is
cheap enough to update "at each sampling period"; the ROADMAP demands
that hold at production fleet sizes, not the paper's 40 VMs.  This bench
times the three hot paths at N ∈ {40, 200, 1000}:

* ``build``   — exact :meth:`CostMatrix.from_traces` over a full window;
* ``update``  — one :meth:`StreamingCostMatrix.update` (the per-sample
  online cost, peak mode);
* ``allocate`` — the full ALLOCATE phase through the indexed fast path.

plus an end-to-end *replay gate*: a full trace replay (placement +
per-period accounting) of a 1000-VM / 125-server fleet through the
fleet-vectorized engine, in both DVFS modes, gated on per-period wall
time; a *synthesis gate*: coarse-to-fine population refinement at
N=1000 under the legacy (v1) and batched (v2) RNG stream layouts, gated
on the v2 speedup and on v2's traced peak over its output bytes; a
*decide-memory gate*: a warm exact decider's kept state and one more
decide's traced peak above it at N=1000, in N² float64 units; a *datacenter-traces
gate*: coarse population generation at N=1000 under the legacy (v1)
and batched (v2) profile layouts, gated on the v2 speedup and the
statistical equivalence of the two layouts' populations; an
*allocate-sweep gate*: repeated per-period
allocations through one reused allocator (a few cost rows changing
per period), gated on per-period wall time; and a
*horizon-percentile gate*: the percentile-mode rolling-horizon cost
fold (``horizon_mode="p2"``) at N=1000, gated on its warm per-period
cost relative to the bit-exact peak-mode fold and to the full rebuild
it replaces, plus its per-entry deviation from the exact matrix.

Results are persisted to ``BENCH_scaling.json`` (via the
``bench_json_merge`` fixture) so the numbers travel with the PR, and
the hard gates encode the acceptance bar: the 1000-VM streaming update
stays under 50 ms per sample, peak-mode streaming stays bit-exact
against the exact matrix at every size, the 1000-VM dynamic-mode replay
stays under the per-period budget, v2 synthesis beats v1 by the gated
factor, and the warm cross-period allocate stays under its budget.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments import slo_frontier
from repro.core.allocation import CorrelationAwareAllocator
from repro.core.correlation import CostMatrix, StreamingCostMatrix
from repro.core.sharding import (
    ENERGY_DEVIATION_BOUND,
    ShardedAllocator,
    ShardingConfig,
    placement_energy_proxy,
)
from repro.core.manager import ManagerConfig, PowerManager
from repro.infrastructure.server import XEON_E5410
from repro.sim.approaches import BfdApproach
from repro.sim.churn import ChurnEngine, synthesize_churn_events
from repro.sim.engine import ReplayConfig, replay
from repro.traces.datacenter import DatacenterTraceConfig, generate_datacenter_traces
from repro.traces.synthesis import refine_trace_set
from repro.traces.trace import ReferenceSpec, TraceSet, UtilizationTrace

SIZES = (40, 200, 1000)
WINDOW_SAMPLES = 720
UPDATE_BUDGET_MS_AT_1000 = 50.0

REPLAY_VMS = 1000
REPLAY_SERVERS = 125
REPLAY_PERIODS = 3  # 1 warm-up + 2 measured
REPLAY_BUDGET_MS_PER_PERIOD = 30.0

FAULTY_REPLAY_CRASH_RATE = 0.01
FAULTY_REPLAY_MAX_RATIO = 2.0    # faulty replay vs plain replay
FAULTY_REPLAY_MASKED_MAX_RATIO = 1.05  # zero-rate schedule vs plain

CKPT_PERIODS = 21                # 1 warm-up + 20 measured
CKPT_SAMPLES_PER_PERIOD = 240    # 20-minute periods of 5 s samples
CKPT_EVERY = 10                  # checkpoint cadence (periods)
CKPT_MAX_RATIO = 1.10            # checkpointing-on vs plain replay
CKPT_DISABLED_MAX_RATIO = 1.02   # policy set but never firing vs plain

SYNTHESIS_VMS = 1000
SYNTHESIS_WINDOWS = 288          # 24 h of 5-minute monitoring samples
SYNTHESIS_FINE_PERIOD_S = 5.0
SYNTHESIS_SIGMA = 0.35
SYNTHESIS_MIN_SPEEDUP = 2.0
# Traced peak over output bytes: 1.0 when the fine matrix is the only
# full-size buffer (2.02 read with a full-size copy of the scale).
SYNTHESIS_MAX_PEAK_VS_OUTPUT = 1.10

SWEEP_VMS = 1000
SWEEP_PERIODS = 4
SWEEP_BUDGET_MS_PER_PERIOD = 100.0

DCGEN_VMS = 1000
DCGEN_CLUSTERS = 8               # the Setup-2 service mix, at fleet scale
DCGEN_MIN_SPEEDUP = 3.0

HORIZON_VMS = 1000
HORIZON_WINDOW_SAMPLES = 240     # 20-minute windows of 5 s samples
HORIZON_DEPTH = 3                # the approaches' default horizon_periods
HORIZON_PERCENTILE = 90.0
# Warm per-period percentile fold vs the bit-exact peak-mode fold on the
# same geometry (the ~2x ROADMAP target; ~3.0x measured on this box —
# the pair-sum sort costs what the peak pays for its max reduction plus
# the marker fold) and vs the full horizon rebuild it replaces.
HORIZON_P2_MAX_RATIO_VS_PEAK = 3.5
HORIZON_P2_MIN_SPEEDUP_VS_REBUILD = 2.5
HORIZON_P2_MAX_REL_DEVIATION = 0.10

DECIDE_MEMORY_VMS = 1000        # W=120, H=3, 5 warm decides, as in tier-1
# A warm exact decide's traced peak above steady state, in N² float64
# units; byte counts, so the same on any box.  The one-buffer Eqn-1
# assembly took peak references from 4.13 to 2.13 and p90 (p2) from
# 5.63 to 3.63; evicting the oldest horizon part before reducing the new
# window took p2 on to 2.13.
DECIDE_MEMORY_MAX_PEAK_N2 = 3.5
DECIDE_MEMORY_MAX_P2_N2 = 3.2
# The steady state itself with peak references: 6.03 with N×N horizon
# parts and the allocator's reindex cache, 2.53 with condensed parts.
DECIDE_MEMORY_MAX_RETAINED_N2 = 3.0

SHARDED_SMALL_VMS = 2000
SHARDED_SMALL_CLUSTERS = 32
SHARDED_SMALL_SHARDS = 8
SHARDED_MIN_SPEEDUP = 1.5        # sharded vs exact allocate at N=2000
SHARDED_LARGE_VMS = 20_000       # end-to-end run on every push
SHARDED_LARGE_BUDGET_S = 60.0    # ~3.7 s measured on the reference box
SHARDED_LARGE_RSS_MB = 1024.0    # ~263 MB measured
SHARDED_DEEP_VMS = 100_000       # weekly deep smoke (REPRO_SHARDED_DEEP=1)
SHARDED_DEEP_BUDGET_S = 360.0    # ~96 s measured on the reference box
SHARDED_DEEP_RSS_MB = 4096.0     # ~1.1 GB measured
SHARDED_DEEP_ENV = "REPRO_SHARDED_DEEP"

CHURN_VMS = 10_000               # sustained-churn gate population
CHURN_PERIODS = 6                # 1 cold + 5 measured
CHURN_SAMPLES_PER_PERIOD = 12
CHURN_EVENTS_PER_PERIOD = 32
# Warm-period tail-latency stability: p99/p50 over the post-cold
# periods.  Dimensionless, so compare_bench gates it across boxes; the
# membership layer's whole point is that churn deltas do not trigger
# rebuild-sized spikes, so warm periods should cluster tightly
# (~1.1x measured; generous headroom for noisy CI neighbours).
CHURN_LATENCY_RATIO_MAX = 3.0


def _fleet(n: int) -> TraceSet:
    rng = np.random.default_rng(n)
    return TraceSet(
        UtilizationTrace(rng.uniform(0.0, 4.0, size=WINDOW_SAMPLES), 5.0, f"vm{i:04d}")
        for i in range(n)
    )


def _time_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def test_scaling_suite(report, bench_json_merge):
    results: dict[str, dict[str, float]] = {}
    for n in SIZES:
        fleet = _fleet(n)
        repeats = 3 if n >= 1000 else 5

        build_ms = _time_ms(lambda: CostMatrix.from_traces(fleet), repeats)
        matrix = CostMatrix.from_traces(fleet)

        streaming = StreamingCostMatrix(fleet.names)
        vector = fleet.matrix[:, 0]
        streaming.update(vector)  # warm the arrays
        update_ms = _time_ms(lambda: streaming.update(vector), max(repeats, 10))

        refs = matrix.references()
        allocator = CorrelationAwareAllocator()
        allocate_ms = _time_ms(
            lambda: allocator.allocate(
                list(fleet.names),
                refs,
                None,
                8,
                cost_array=matrix.as_array(),
                name_index=matrix.name_index,
            ),
            repeats,
        )

        # Bit-exactness gate: fold the whole window and compare against
        # the exact matrix (a running maximum is lossless).
        streaming.reset()
        for column in fleet.matrix.T:
            streaming.update(column)
        assert np.array_equal(streaming.as_array(), matrix.as_array()), (
            f"peak-mode streaming diverged from the exact matrix at N={n}"
        )

        results[str(n)] = {
            "build_ms": round(build_ms, 3),
            "update_ms": round(update_ms, 3),
            "allocate_ms": round(allocate_ms, 3),
        }

    assert results["1000"]["update_ms"] < UPDATE_BUDGET_MS_AT_1000, (
        f"1000-VM streaming update took {results['1000']['update_ms']} ms, "
        f"budget is {UPDATE_BUDGET_MS_AT_1000} ms"
    )

    payload = {
        "window_samples": WINDOW_SAMPLES,
        "n_cores": 8,
        "sizes": results,
    }
    path = bench_json_merge("scaling", "kernels", payload)
    lines = [f"{'N':>6} {'build ms':>10} {'update ms':>10} {'allocate ms':>12}"]
    for n in SIZES:
        row = results[str(n)]
        lines.append(
            f"{n:>6} {row['build_ms']:>10.3f} {row['update_ms']:>10.3f} "
            f"{row['allocate_ms']:>12.3f}"
        )
    lines.append(f"persisted to {path}")
    report("\n".join(lines))


def test_replay_gate(report, bench_json_merge):
    """End-to-end replay accounting for a 1000-VM / 125-server fleet.

    The whole pipeline behind every experiment — placement each period,
    frequency planning, violation / residency / energy accounting —
    must stay in interactive territory at production scale.  The
    fleet-vectorized engine turns the old O(servers x intervals) Python
    loop into a handful of kernels; this gate pins that down to a
    per-period wall-clock budget (the pre-vectorization engine missed it
    roughly 2x in dynamic mode).
    """
    rng = np.random.default_rng(REPLAY_VMS)
    matrix = rng.uniform(
        0.05, 0.85, size=(REPLAY_VMS, REPLAY_PERIODS * WINDOW_SAMPLES)
    )
    traces = TraceSet.from_matrix(
        matrix, [f"vm{i:04d}" for i in range(REPLAY_VMS)], 5.0
    )
    measured_periods = REPLAY_PERIODS - 1

    results: dict[str, dict[str, float]] = {}
    for mode in ("static", "dynamic"):
        config = ReplayConfig(tperiod_s=3600.0, dvfs_mode=mode)

        def _run():
            approach = BfdApproach(
                XEON_E5410.n_cores,
                XEON_E5410.freq_levels_ghz,
                max_servers=REPLAY_SERVERS,
                default_reference=1.0,
            )
            return replay(traces, XEON_E5410, REPLAY_SERVERS, approach, config)

        result = _run()  # warm + correctness probe
        assert result.num_periods == measured_periods
        total = sum(result.residency.merged().values()) + sum(
            result.residency.inactive(i) for i in range(REPLAY_SERVERS)
        )
        assert total == measured_periods * WINDOW_SAMPLES * REPLAY_SERVERS

        replay_ms = _time_ms(_run, 3)
        results[mode] = {
            "replay_ms": round(replay_ms, 3),
            "per_period_ms": round(replay_ms / measured_periods, 3),
        }

    # Persist before gating: a budget miss must still ship the numbers
    # that diagnose it (CI uploads the JSON with `if: always()`).
    payload = {
        "vms": REPLAY_VMS,
        "servers": REPLAY_SERVERS,
        "samples_per_period": WINDOW_SAMPLES,
        "measured_periods": measured_periods,
        "budget_ms_per_period": REPLAY_BUDGET_MS_PER_PERIOD,
        "modes": results,
    }
    path = bench_json_merge("scaling", "replay", payload)
    lines = [f"{'mode':>8} {'replay ms':>10} {'per-period ms':>14}"]
    for mode in ("static", "dynamic"):
        row = results[mode]
        lines.append(f"{mode:>8} {row['replay_ms']:>10.3f} {row['per_period_ms']:>14.3f}")
    lines.append(f"persisted to {path}")
    report("\n".join(lines))

    per_period = results["dynamic"]["per_period_ms"]
    assert per_period < REPLAY_BUDGET_MS_PER_PERIOD, (
        f"1000-VM dynamic replay took {per_period} ms per period, "
        f"budget is {REPLAY_BUDGET_MS_PER_PERIOD} ms"
    )


def test_replay_faulty_gate(report, bench_json_merge):
    """Fault-injection overhead at 1000 VMs / 125 servers.

    Three replays of the same fleet: the plain engine (``faults=None``),
    a zero-rate schedule (all the masking machinery, no actual faults),
    and a 1% per-period crash rate with stragglers.  Two gates: the
    zero-rate run must stay within 5% of the plain one (the fault-free
    path pays almost nothing for the feature existing), and the faulty
    run within 2x (evacuations + capacity scaling must not dominate the
    replay).  Correctness probe: the zero-rate run's energy is
    byte-identical to the plain run's.
    """
    from repro.sim.faults import FaultConfig

    rng = np.random.default_rng(REPLAY_VMS + 1)
    matrix = rng.uniform(
        0.05, 0.85, size=(REPLAY_VMS, REPLAY_PERIODS * WINDOW_SAMPLES)
    )
    traces = TraceSet.from_matrix(
        matrix, [f"vm{i:04d}" for i in range(REPLAY_VMS)], 5.0
    )
    measured_periods = REPLAY_PERIODS - 1
    variants = {
        "plain": None,
        "masked": FaultConfig(crash_rate=0.0, degraded_rate=0.0),
        "faulty": FaultConfig(
            seed=2013,
            crash_rate=FAULTY_REPLAY_CRASH_RATE,
            degraded_rate=FAULTY_REPLAY_CRASH_RATE / 2,
        ),
    }

    results: dict[str, dict[str, float]] = {}
    probes = {}
    for label, faults in variants.items():
        config = ReplayConfig(tperiod_s=3600.0, dvfs_mode="static", faults=faults)

        def _run():
            approach = BfdApproach(
                XEON_E5410.n_cores,
                XEON_E5410.freq_levels_ghz,
                max_servers=REPLAY_SERVERS,
                default_reference=1.0,
            )
            return replay(traces, XEON_E5410, REPLAY_SERVERS, approach, config)

        probes[label] = _run()  # warm + correctness probe
        ms = _time_ms(_run, 3)
        results[label] = {
            "replay_ms": round(ms, 3),
            "per_period_ms": round(ms / measured_periods, 3),
        }

    # Correctness before timing gates: a masked run that changes the
    # numbers would make its overhead ratio meaningless.
    assert probes["masked"].energy_j == probes["plain"].energy_j
    assert probes["masked"].faults.evacuations == 0
    assert probes["faulty"].faults.evacuations > 0

    masked_ratio = results["masked"]["replay_ms"] / results["plain"]["replay_ms"]
    faulty_ratio = results["faulty"]["replay_ms"] / results["plain"]["replay_ms"]
    payload = {
        "vms": REPLAY_VMS,
        "servers": REPLAY_SERVERS,
        "crash_rate": FAULTY_REPLAY_CRASH_RATE,
        "measured_periods": measured_periods,
        "evacuations": probes["faulty"].faults.evacuations,
        "masked_vs_plain": round(masked_ratio, 3),
        "faulty_vs_plain": round(faulty_ratio, 3),
        "variants": results,
    }
    path = bench_json_merge("scaling", "replay_faulty", payload)
    lines = [f"{'variant':>8} {'replay ms':>10} {'per-period ms':>14}"]
    for label in variants:
        row = results[label]
        lines.append(
            f"{label:>8} {row['replay_ms']:>10.3f} {row['per_period_ms']:>14.3f}"
        )
    lines.append(
        f"masked/plain {masked_ratio:.3f}  faulty/plain {faulty_ratio:.3f}"
    )
    lines.append(f"persisted to {path}")
    report("\n".join(lines))

    assert masked_ratio < FAULTY_REPLAY_MASKED_MAX_RATIO, (
        f"zero-rate fault masking cost {masked_ratio:.3f}x the plain replay, "
        f"budget is {FAULTY_REPLAY_MASKED_MAX_RATIO}x"
    )
    assert faulty_ratio < FAULTY_REPLAY_MAX_RATIO, (
        f"fault-mode replay cost {faulty_ratio:.3f}x the plain replay, "
        f"budget is {FAULTY_REPLAY_MAX_RATIO}x"
    )


def test_replay_checkpoint_gate(report, bench_json_merge, tmp_path):
    """Checkpointing overhead at 1000 VMs / 125 servers.

    Three replays of the same 20-period fleet: the plain engine
    (``checkpoint=None``), a policy that never fires (cadence beyond the
    horizon — the cost of the feature merely existing), and the real
    thing (a full state serialization + fsync'd atomic write every
    ``CKPT_EVERY`` periods, audit on).  Gates: the never-firing policy
    stays within 2% of plain, and live checkpointing within 10%.
    Correctness probes: all three results are byte-identical, and a
    resume from the last written checkpoint reproduces the plain result
    byte-identically.
    """
    import pickle

    from repro.sim.checkpoint import CheckpointPolicy, list_checkpoints

    rng = np.random.default_rng(REPLAY_VMS + 2)
    matrix = rng.uniform(
        0.05, 0.85, size=(REPLAY_VMS, CKPT_PERIODS * CKPT_SAMPLES_PER_PERIOD)
    )
    traces = TraceSet.from_matrix(
        matrix, [f"vm{i:04d}" for i in range(REPLAY_VMS)], 5.0
    )
    measured_periods = CKPT_PERIODS - 1
    ckpt_dir = tmp_path / "ckpts"
    variants = {
        "plain": None,
        "disabled": CheckpointPolicy(path=tmp_path / "never", every_periods=10_000),
        "checkpointed": CheckpointPolicy(path=ckpt_dir, every_periods=CKPT_EVERY),
    }

    def _make_run(policy):
        config = ReplayConfig(
            tperiod_s=CKPT_SAMPLES_PER_PERIOD * 5.0,
            dvfs_mode="static",
            checkpoint=policy,
        )

        def _run():
            approach = BfdApproach(
                XEON_E5410.n_cores,
                XEON_E5410.freq_levels_ghz,
                max_servers=REPLAY_SERVERS,
                default_reference=1.0,
            )
            return replay(traces, XEON_E5410, REPLAY_SERVERS, approach, config)

        return _run

    runners = {label: _make_run(policy) for label, policy in variants.items()}
    probes = {label: run() for label, run in runners.items()}  # warm + probe
    # The 2% disabled gate measures a near-zero overhead, so the timing
    # must survive host steal on a shared single-CPU box: run the three
    # variants back to back within each round (so a slow stretch taxes
    # the whole round, not one variant) and gate on the *paired* ratios
    # of the best round — one clean round out of seven is enough, where
    # ratios of independent per-variant bests need two lucky runs to
    # line up.
    best = dict.fromkeys(variants, float("inf"))
    disabled_ratio = checkpoint_ratio = float("inf")
    for _ in range(7):
        round_ms = {}
        for label, run in runners.items():
            start = time.perf_counter()
            run()
            round_ms[label] = time.perf_counter() - start
            best[label] = min(best[label], round_ms[label])
        disabled_ratio = min(disabled_ratio, round_ms["disabled"] / round_ms["plain"])
        checkpoint_ratio = min(
            checkpoint_ratio, round_ms["checkpointed"] / round_ms["plain"]
        )
    results: dict[str, dict[str, float]] = {
        label: {
            "replay_ms": round(ms * 1e3, 3),
            "per_period_ms": round(ms * 1e3 / measured_periods, 3),
        }
        for label, ms in best.items()
    }

    # Correctness before timing gates: results must be byte-identical
    # with the policy absent, idle, and firing — and a resume from the
    # last checkpoint must land on the same bytes.
    reference = pickle.dumps(probes["plain"])
    assert pickle.dumps(probes["disabled"]) == reference
    assert pickle.dumps(probes["checkpointed"]) == reference
    files = list_checkpoints(ckpt_dir)
    assert files, "checkpointed replay wrote no files"
    resumed = replay(
        traces,
        XEON_E5410,
        REPLAY_SERVERS,
        BfdApproach(
            XEON_E5410.n_cores,
            XEON_E5410.freq_levels_ghz,
            max_servers=REPLAY_SERVERS,
            default_reference=1.0,
        ),
        ReplayConfig(tperiod_s=CKPT_SAMPLES_PER_PERIOD * 5.0, dvfs_mode="static"),
        resume_from=files[0],
    )
    assert pickle.dumps(resumed) == reference, "resume diverged from the plain replay"

    payload = {
        "vms": REPLAY_VMS,
        "servers": REPLAY_SERVERS,
        "samples_per_period": CKPT_SAMPLES_PER_PERIOD,
        "measured_periods": measured_periods,
        "checkpoint_every": CKPT_EVERY,
        "checkpoints_written": len(files),
        "disabled_vs_plain": round(disabled_ratio, 3),
        "checkpoint_vs_plain": round(checkpoint_ratio, 3),
        "variants": results,
    }
    path = bench_json_merge("scaling", "replay_checkpoint", payload)
    lines = [f"{'variant':>13} {'replay ms':>10} {'per-period ms':>14}"]
    for label in variants:
        row = results[label]
        lines.append(
            f"{label:>13} {row['replay_ms']:>10.3f} {row['per_period_ms']:>14.3f}"
        )
    lines.append(
        f"disabled/plain {disabled_ratio:.3f}  checkpointed/plain {checkpoint_ratio:.3f}"
    )
    lines.append(f"persisted to {path}")
    report("\n".join(lines))

    assert disabled_ratio < CKPT_DISABLED_MAX_RATIO, (
        f"an idle checkpoint policy cost {disabled_ratio:.3f}x the plain replay, "
        f"budget is {CKPT_DISABLED_MAX_RATIO}x"
    )
    assert checkpoint_ratio < CKPT_MAX_RATIO, (
        f"checkpointing every {CKPT_EVERY} periods cost {checkpoint_ratio:.3f}x "
        f"the plain replay, budget is {CKPT_MAX_RATIO}x"
    )


def test_synthesis_gate(report, bench_json_merge):
    """Population refinement at N=1000: batched v2 layout vs legacy v1.

    The ROADMAP targeted ~10x from vectorizing `refine_trace_set`; in
    practice the legacy loop's cost is dominated by the very ziggurat +
    exp work the batched kernel must also do (the per-window Python
    overhead is only ~40% of v1), so the honest ceiling on this box is
    ~2.5-3x.  The gate pins that down: v2 must beat v1 by at least
    ``SYNTHESIS_MIN_SPEEDUP`` and stay seeded-deterministic.
    """
    rng = np.random.default_rng(SYNTHESIS_VMS)
    matrix = rng.uniform(0.05, 3.5, size=(SYNTHESIS_VMS, SYNTHESIS_WINDOWS))
    matrix.flags.writeable = False
    coarse = TraceSet.from_matrix(
        matrix, [f"vm{i:04d}" for i in range(SYNTHESIS_VMS)], 300.0
    )

    def _build(layout: str) -> TraceSet:
        return refine_trace_set(
            coarse,
            SYNTHESIS_FINE_PERIOD_S,
            sigma=SYNTHESIS_SIGMA,
            rng=np.random.default_rng(1),
            cap=4.0,
            stream_layout=layout,
        )

    v1_ms = _time_ms(lambda: _build("v1"), 3)
    v2_ms = _time_ms(lambda: _build("v2"), 3)
    speedup = v1_ms / v2_ms

    # Determinism probe: the same seed must reproduce the v2 population
    # exactly (the layout is a versioned contract, not an implementation
    # detail).
    assert np.array_equal(_build("v2").matrix, _build("v2").matrix)

    peak_vs_output = _memory_probes().synthesis_peak_vs_output(
        SYNTHESIS_VMS, SYNTHESIS_WINDOWS, int(300.0 / SYNTHESIS_FINE_PERIOD_S)
    )

    payload = {
        "vms": SYNTHESIS_VMS,
        "coarse_windows": SYNTHESIS_WINDOWS,
        "fine_period_s": SYNTHESIS_FINE_PERIOD_S,
        "sigma": SYNTHESIS_SIGMA,
        "v1_ms": round(v1_ms, 3),
        "v2_ms": round(v2_ms, 3),
        "speedup": round(speedup, 2),
        "min_speedup": SYNTHESIS_MIN_SPEEDUP,
        "peak_vs_output": round(peak_vs_output, 3),
        "max_peak_vs_output": SYNTHESIS_MAX_PEAK_VS_OUTPUT,
    }
    path = bench_json_merge("scaling", "synthesis", payload)
    report(
        f"population build at N={SYNTHESIS_VMS}: v1 {v1_ms:.1f} ms, "
        f"v2 {v2_ms:.1f} ms ({speedup:.1f}x), traced peak "
        f"{peak_vs_output:.3f}x the output\npersisted to {path}"
    )
    assert speedup >= SYNTHESIS_MIN_SPEEDUP, (
        f"v2 synthesis only {speedup:.2f}x faster than v1 at N={SYNTHESIS_VMS}, "
        f"gate is {SYNTHESIS_MIN_SPEEDUP}x"
    )
    assert peak_vs_output <= SYNTHESIS_MAX_PEAK_VS_OUTPUT, (
        f"v2 synthesis peaked at {peak_vs_output:.3f}x its output, "
        f"gate is {SYNTHESIS_MAX_PEAK_VS_OUTPUT}x"
    )


def test_datacenter_traces_gate(report, bench_json_merge):
    """Coarse population generation at N=1000: batched v2 layout vs v1.

    ``generate_datacenter_traces`` was the last per-VM Python kernel on
    the scenario critical path — under ``profile_layout="v1"`` it draws
    one profile after another to keep its legacy RNG contract, and at
    N=1000 that costs more than the ``refine_trace_set`` refinement it
    feeds.  The ``"v2"`` layout draws the whole population in batched
    blocks; this gate pins its speedup, v1's seeded determinism (true
    byte-identity against the pre-versioning generator is pinned by the
    transcribed reference in ``tests/test_datacenter_traces.py``), and
    the statistical equivalence of the two layouts' populations —
    matching mean utilization, peak-to-mean ratio, intra-cluster
    correlation structure, and identical membership maps.
    """
    from repro.traces.datacenter import DatacenterTraceConfig, generate_datacenter_traces

    def _config(layout: str) -> DatacenterTraceConfig:
        return DatacenterTraceConfig(
            num_vms=DCGEN_VMS, num_clusters=DCGEN_CLUSTERS, profile_layout=layout
        )

    v1_ms = _time_ms(lambda: generate_datacenter_traces(_config("v1")), 3)
    v2_ms = _time_ms(lambda: generate_datacenter_traces(_config("v2")), 3)
    speedup = v1_ms / v2_ms

    v1, membership_v1 = generate_datacenter_traces(_config("v1"))
    v2, membership_v2 = generate_datacenter_traces(_config("v2"))
    v1_again, _ = generate_datacenter_traces(_config("v1"))

    # v1 regression probe: the legacy layout stays seeded-deterministic
    # (its byte-level contract is equivalence-tested against the
    # transcribed legacy loop in the tier-1 suite).
    assert np.array_equal(v1.matrix, v1_again.matrix), "v1 layout lost determinism"
    assert membership_v1 == membership_v2, "membership map differs across layouts"

    def _stats(traces) -> dict[str, float]:
        matrix = traces.matrix
        z = matrix - matrix.mean(axis=1, keepdims=True)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        corr = z @ z.T
        clusters = np.arange(DCGEN_VMS) % DCGEN_CLUSTERS
        same = clusters[:, None] == clusters[None, :]
        off = ~np.eye(DCGEN_VMS, dtype=bool)
        return {
            "mean_utilization": float(matrix.mean()),
            "peak_to_mean": float((matrix.max(axis=1) / matrix.mean(axis=1)).mean()),
            "intra_cluster_corr": float(corr[same & off].mean()),
            "corr_gap": float(corr[same & off].mean() - corr[~same].mean()),
        }

    stats_v1, stats_v2 = _stats(v1), _stats(v2)
    # Statistical-equivalence gates: different RNG streams, same
    # population model — the evaluation-surface statistics must agree.
    assert stats_v2["mean_utilization"] == pytest.approx(
        stats_v1["mean_utilization"], rel=0.25
    ), "v2 mean utilization diverged from v1"
    assert stats_v2["peak_to_mean"] == pytest.approx(
        stats_v1["peak_to_mean"], rel=0.15
    ), "v2 peak-to-mean ratio diverged from v1"
    assert stats_v2["intra_cluster_corr"] == pytest.approx(
        stats_v1["intra_cluster_corr"], abs=0.1
    ), "v2 intra-cluster correlation diverged from v1"
    assert stats_v2["corr_gap"] > 0.5, "v2 lost the clustered-correlation structure"

    payload = {
        "vms": DCGEN_VMS,
        "clusters": DCGEN_CLUSTERS,
        "samples": _config("v1").num_samples,
        "v1_ms": round(v1_ms, 3),
        "v2_ms": round(v2_ms, 3),
        "speedup": round(speedup, 2),
        "min_speedup": DCGEN_MIN_SPEEDUP,
        "stats_v1": {k: round(val, 4) for k, val in stats_v1.items()},
        "stats_v2": {k: round(val, 4) for k, val in stats_v2.items()},
    }
    path = bench_json_merge("scaling", "datacenter_traces", payload)
    report(
        f"coarse population at N={DCGEN_VMS}: v1 {v1_ms:.1f} ms, "
        f"v2 {v2_ms:.1f} ms ({speedup:.1f}x); mean util "
        f"{stats_v1['mean_utilization']:.3f}/{stats_v2['mean_utilization']:.3f}, "
        f"peak-to-mean {stats_v1['peak_to_mean']:.2f}/{stats_v2['peak_to_mean']:.2f}, "
        f"intra-corr {stats_v1['intra_cluster_corr']:.3f}/"
        f"{stats_v2['intra_cluster_corr']:.3f}\npersisted to {path}"
    )
    assert speedup >= DCGEN_MIN_SPEEDUP, (
        f"v2 coarse generation only {speedup:.2f}x faster than v1 at "
        f"N={DCGEN_VMS}, gate is {DCGEN_MIN_SPEEDUP}x"
    )


def test_allocate_sweep_gate(report, bench_json_merge):
    """Warm cross-period ALLOCATE at N=1000 stays under the sweep budget.

    One allocator drives several consecutive periods over a cost matrix
    where only a few rows move per period — the streaming deployment
    shape.  This exercises the sweep stack (per-bin cost caching, batched
    TH-level degeneration, the per-call slot-order gather) and pins the
    per-period wall clock, with a fresh allocator's first call reported
    alongside; a reused allocator keeps nothing between calls, so the two
    differ only by run-to-run noise.
    """
    rng = np.random.default_rng(SWEEP_VMS)
    fleet = _fleet(SWEEP_VMS)
    matrix = CostMatrix.from_traces(fleet)
    refs = matrix.references()
    names = list(fleet.names)
    array = matrix.as_array().copy()
    allocator = CorrelationAwareAllocator()

    def _allocate(active: CorrelationAwareAllocator):
        return active.allocate(
            names, refs, None, 8, cost_array=array, name_index=matrix.name_index
        )

    cold_ms = _time_ms(lambda: _allocate(CorrelationAwareAllocator()), 3)
    _allocate(allocator)

    warm_times = []
    for _ in range(SWEEP_PERIODS):
        # Perturb a handful of rows/columns symmetrically, like a peak
        # update touching a few VMs between periods.
        for i in rng.integers(0, SWEEP_VMS, size=5):
            array[i, :] *= 1.001
            array[:, i] = array[i, :]
            array[i, i] = 1.0
        start = time.perf_counter()
        warm = _allocate(allocator)
        warm_times.append((time.perf_counter() - start) * 1e3)
        # Reuse must never change the placement.
        cold = _allocate(CorrelationAwareAllocator())
        assert dict(warm.assignment) == dict(cold.assignment)

    warm_ms = min(warm_times)
    payload = {
        "vms": SWEEP_VMS,
        "periods": SWEEP_PERIODS,
        "cold_ms": round(cold_ms, 3),
        "warm_ms": round(warm_ms, 3),
        "budget_ms_per_period": SWEEP_BUDGET_MS_PER_PERIOD,
    }
    path = bench_json_merge("scaling", "allocate_sweep", payload)
    report(
        f"cross-period allocate at N={SWEEP_VMS}: cold {cold_ms:.1f} ms, "
        f"warm {warm_ms:.1f} ms per period\npersisted to {path}"
    )
    assert warm_ms < SWEEP_BUDGET_MS_PER_PERIOD, (
        f"warm 1000-VM allocate took {warm_ms:.1f} ms, "
        f"budget is {SWEEP_BUDGET_MS_PER_PERIOD} ms"
    )


def test_horizon_percentile_gate(report, bench_json_merge):
    """Percentile-mode rolling-horizon cost at N=1000: fold vs rebuild.

    ``qos_sweep``'s off-peak rows used to rebuild the full percentile
    joint matrix over the whole horizon every period (O(N²WH)); the
    ``"p2"`` mode folds cached per-window quantile marker states instead
    (O(N²W), like the peak-mode parts fold).  Three gates pin the deal:
    the warm per-period fold stays within
    ``HORIZON_P2_MAX_RATIO_VS_PEAK`` of the bit-exact peak fold on the
    same geometry, beats the exact rebuild by at least
    ``HORIZON_P2_MIN_SPEEDUP_VS_REBUILD``, and its cost matrix deviates
    from the exact rebuild's by at most
    ``HORIZON_P2_MAX_REL_DEVIATION`` per entry.
    """
    from repro.core.correlation import RollingCostHorizon
    from repro.traces.trace import ReferenceSpec, TraceSet

    rng = np.random.default_rng(HORIZON_VMS)
    names = [f"vm{i:04d}" for i in range(HORIZON_VMS)]

    def _window(period: int) -> TraceSet:
        # Mild diurnal-style level drift across periods: the folding
        # error is exercised, not just the stationary easy case.
        level = 1.0 + 0.2 * np.sin(period)
        matrix = rng.uniform(0.0, 4.0 * level, size=(HORIZON_VMS, HORIZON_WINDOW_SAMPLES))
        matrix.flags.writeable = False
        return TraceSet.from_matrix(matrix, names, 5.0)

    windows = [_window(period) for period in range(HORIZON_DEPTH + 2)]
    spec = ReferenceSpec(HORIZON_PERCENTILE)

    def _warm_per_period(tracker, repeats: int):
        for window in windows[:HORIZON_DEPTH]:
            tracker.push(window)
        best, last = float("inf"), None
        for window in windows[HORIZON_DEPTH : HORIZON_DEPTH + repeats]:
            start = time.perf_counter()
            last = tracker.push(window)
            best = min(best, time.perf_counter() - start)
        return best * 1e3, last

    peak_ms, _ = _warm_per_period(
        RollingCostHorizon(ReferenceSpec(), HORIZON_DEPTH), 2
    )
    p2_ms, p2_matrix = _warm_per_period(
        RollingCostHorizon(spec, HORIZON_DEPTH, "p2"), 2
    )
    # The rebuild is the expensive baseline being retired — time one
    # warm period only, then push once more so both trackers cover the
    # same trailing horizon for the deviation probe.
    exact = RollingCostHorizon(spec, HORIZON_DEPTH, "exact")
    for window in windows[: HORIZON_DEPTH]:
        exact.push(window)
    start = time.perf_counter()
    exact.push(windows[HORIZON_DEPTH])
    rebuild_ms = (time.perf_counter() - start) * 1e3
    exact_matrix = exact.push(windows[HORIZON_DEPTH + 1])

    deviation = float(
        np.abs(p2_matrix.as_array() / exact_matrix.as_array() - 1.0).max()
    )
    ratio = p2_ms / peak_ms
    speedup = rebuild_ms / p2_ms

    payload = {
        "vms": HORIZON_VMS,
        "window_samples": HORIZON_WINDOW_SAMPLES,
        "horizon_periods": HORIZON_DEPTH,
        "percentile": HORIZON_PERCENTILE,
        "peak_fold_ms": round(peak_ms, 3),
        "p2_fold_ms": round(p2_ms, 3),
        "rebuild_ms": round(rebuild_ms, 3),
        "ratio_vs_peak": round(ratio, 2),
        "speedup_vs_rebuild": round(speedup, 2),
        "max_rel_deviation": round(deviation, 4),
        "max_ratio_vs_peak": HORIZON_P2_MAX_RATIO_VS_PEAK,
        "min_speedup_vs_rebuild": HORIZON_P2_MIN_SPEEDUP_VS_REBUILD,
        "max_allowed_deviation": HORIZON_P2_MAX_REL_DEVIATION,
    }
    path = bench_json_merge("scaling", "horizon_percentile", payload)
    report(
        f"percentile horizon at N={HORIZON_VMS} (q={HORIZON_PERCENTILE:.0f}, "
        f"H={HORIZON_DEPTH}, W={HORIZON_WINDOW_SAMPLES}): peak fold {peak_ms:.0f} ms, "
        f"p2 fold {p2_ms:.0f} ms ({ratio:.2f}x peak), rebuild {rebuild_ms:.0f} ms "
        f"({speedup:.1f}x), max deviation {deviation:.4f}\npersisted to {path}"
    )
    assert ratio <= HORIZON_P2_MAX_RATIO_VS_PEAK, (
        f"p2 horizon fold is {ratio:.2f}x the peak fold, "
        f"gate is {HORIZON_P2_MAX_RATIO_VS_PEAK}x"
    )
    assert speedup >= HORIZON_P2_MIN_SPEEDUP_VS_REBUILD, (
        f"p2 horizon fold only {speedup:.2f}x faster than the exact rebuild, "
        f"gate is {HORIZON_P2_MIN_SPEEDUP_VS_REBUILD}x"
    )
    assert deviation <= HORIZON_P2_MAX_REL_DEVIATION, (
        f"p2 horizon cost matrix deviates {deviation:.4f} from the exact rebuild, "
        f"gate is {HORIZON_P2_MAX_REL_DEVIATION}"
    )


def _memory_probes():
    """The traced-memory probes tier-1 gates at N=700 (tests/test_memory.py)."""
    path = Path(__file__).resolve().parent.parent / "tests" / "test_memory.py"
    spec = importlib.util.spec_from_file_location("memory_probes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decide_memory_gate(report, bench_json_merge):
    """A warm exact decider's memory at N=1000, in N² float64s.

    ``retained_n2`` is what the manager keeps across periods with peak
    references (condensed horizon parts and the latest cost matrix);
    the transients are one more decide's peak above it.  The Eqn-1
    assembly fills the one matrix it returns, so what remains is the
    expanded horizon joint and that matrix.  Transients are gated for
    peak references and for p90 through the p2 fold.
    """
    probes = _memory_probes()
    retained_n2, peak_n2 = probes.decide_memory(DECIDE_MEMORY_VMS, ReferenceSpec(), "exact")
    _p2_retained, p2_n2 = probes.decide_memory(
        DECIDE_MEMORY_VMS, ReferenceSpec(HORIZON_PERCENTILE), "p2"
    )
    payload = {
        "vms": DECIDE_MEMORY_VMS,
        "window_samples": probes.DECIDE_WINDOW_SAMPLES,
        "horizon_periods": probes.DECIDE_HORIZON,
        "warm_decides": probes.DECIDE_WARM_DECIDES,
        "percentile": HORIZON_PERCENTILE,
        "retained_n2": round(retained_n2, 3),
        "peak_transient_n2": round(peak_n2, 3),
        "p2_transient_n2": round(p2_n2, 3),
        "max_retained_n2": DECIDE_MEMORY_MAX_RETAINED_N2,
        "max_peak_transient_n2": DECIDE_MEMORY_MAX_PEAK_N2,
        "max_p2_transient_n2": DECIDE_MEMORY_MAX_P2_N2,
    }
    path = bench_json_merge("scaling", "decide_memory", payload)
    report(
        f"warm exact decider at N={DECIDE_MEMORY_VMS}: keeps {retained_n2:.2f} N² "
        f"float64 (peak refs); transient {peak_n2:.2f} N² (peak refs), "
        f"{p2_n2:.2f} N² (p{HORIZON_PERCENTILE:.0f}, p2)\npersisted to {path}"
    )
    assert retained_n2 <= DECIDE_MEMORY_MAX_RETAINED_N2, (
        f"warm peak-reference decider keeps {retained_n2:.2f} N² float64 between "
        f"decides, gate is {DECIDE_MEMORY_MAX_RETAINED_N2}"
    )
    assert peak_n2 <= DECIDE_MEMORY_MAX_PEAK_N2, (
        f"warm peak-reference decide peaked {peak_n2:.2f} N² float64 above "
        f"steady state, gate is {DECIDE_MEMORY_MAX_PEAK_N2}"
    )
    assert p2_n2 <= DECIDE_MEMORY_MAX_P2_N2, (
        f"warm p2 decide peaked {p2_n2:.2f} N² float64 above steady state, "
        f"gate is {DECIDE_MEMORY_MAX_P2_N2}"
    )


def test_percentile_streaming_scales(report):
    """Percentile mode (BatchPSquare over all pairs) stays online at N=200."""
    fleet = _fleet(200)
    streaming = StreamingCostMatrix(fleet.names, ReferenceSpec(90.0))
    vector = fleet.matrix[:, 0]
    for column in fleet.matrix.T[:6]:  # past the P-square warm-up buffer
        streaming.update(column)
    update_ms = _time_ms(lambda: streaming.update(vector), 10)
    report(f"N=200 percentile-mode streaming update: {update_ms:.3f} ms")
    assert update_ms < UPDATE_BUDGET_MS_AT_1000


def _clustered_population(num_vms: int, seed: int) -> TraceSet:
    """A correlation-clustered v2 population (the sharded tier's target)."""
    config = DatacenterTraceConfig(
        num_vms=num_vms,
        num_clusters=SHARDED_SMALL_CLUSTERS,
        duration_s=4 * 3600.0,
        period_s=300.0,
        seed=seed,
        profile_layout="v2",
    )
    window, _membership = generate_datacenter_traces(config)
    return window


# Child process for the end-to-end large-N run: a subprocess isolates
# both the wall clock and the peak-RSS high-water mark from whatever the
# rest of the bench session already allocated (``ru_maxrss`` can never
# be reset in-process).
_SHARDED_CHILD = """
import json, resource, sys, time
from repro.core.sharding import ShardedAllocator, ShardingConfig
from repro.traces.datacenter import DatacenterTraceConfig, generate_datacenter_traces
from repro.traces.trace import ReferenceSpec

n = int(sys.argv[1])
config = DatacenterTraceConfig(
    num_vms=n, num_clusters=64, duration_s=4 * 3600.0, period_s=300.0,
    seed=13, profile_layout="v2",
)
window, _membership = generate_datacenter_traces(config)
references = dict(window.references(ReferenceSpec()))
start = time.perf_counter()
allocator = ShardedAllocator(sharding=ShardingConfig())
placement = allocator.allocate(window, references, 8)
wall_s = time.perf_counter() - start
assert len(placement.assignment) == n, "sharded allocate dropped VMs"
# ru_maxrss is KiB on Linux (the CI and reference boxes).
print(json.dumps({
    "wall_s": wall_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "servers": placement.num_servers,
    "shards": allocator.last_num_shards,
}))
"""


def _run_sharded_child(num_vms: int) -> dict:
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", _SHARDED_CHILD, str(num_vms)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_allocate_sharded_gate(report, bench_json_merge):
    """The two-level sharded tier: bounded deviation, end-to-end scale.

    Three gates pin the approximate-but-gated contract of
    :mod:`repro.core.sharding`:

    * at N=2000 the sharded placement's Eqn-4 energy proxy (scored on
      the *exact* dense cost matrix) stays within
      ``ENERGY_DEVIATION_BOUND`` of the exact allocator's, while beating
      it by at least ``SHARDED_MIN_SPEEDUP`` on wall clock;
    * ``num_shards=1`` degenerates to the exact allocator bit-exactly
      (same assignment, same fleet size) — the approximation is the
      sharding, never the per-shard solver;
    * an end-to-end N=20k placement (N=100k under ``REPRO_SHARDED_DEEP=1``,
      the weekly deep smoke) finishes on one box inside a wall-clock and
      peak-RSS budget, measured in a subprocess so the rest of the bench
      session cannot pollute the high-water mark.
    """
    n_cores = XEON_E5410.n_cores
    levels = XEON_E5410.freq_levels_ghz
    window = _clustered_population(SHARDED_SMALL_VMS, seed=11)
    references = dict(window.references(ReferenceSpec()))
    names = list(window.names)

    start = time.perf_counter()
    matrix = CostMatrix.from_traces(window)
    exact = CorrelationAwareAllocator().allocate(
        names,
        references,
        matrix.cost,
        n_cores,
        None,
        cost_array=matrix.as_array(),
        name_index=matrix.name_index,
    )
    exact_ms = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    sharded_allocator = ShardedAllocator(
        sharding=ShardingConfig(num_shards=SHARDED_SMALL_SHARDS)
    )
    sharded = sharded_allocator.allocate(window, references, n_cores)
    sharded_ms = (time.perf_counter() - start) * 1e3
    speedup = exact_ms / sharded_ms

    assert len(sharded.assignment) == SHARDED_SMALL_VMS, "sharded allocate dropped VMs"
    assert sharded_allocator.last_num_shards == SHARDED_SMALL_SHARDS

    # Deviation is scored on the exact matrix: both placements pay the
    # same (exact) Eqn-4 bill, only the packing decisions differ.
    exact_proxy = placement_energy_proxy(exact, references, matrix.cost, levels, n_cores)
    sharded_proxy = placement_energy_proxy(sharded, references, matrix.cost, levels, n_cores)
    proxy_ratio = sharded_proxy / exact_proxy
    deviation = abs(proxy_ratio - 1.0)

    # Degenerate single shard: bit-identical to the exact allocator.
    single = ShardedAllocator(sharding=ShardingConfig(num_shards=1)).allocate(
        window, references, n_cores
    )
    assert dict(single.assignment) == dict(exact.assignment), (
        "num_shards=1 must reproduce the exact allocator's assignment bit-exactly"
    )
    assert single.num_servers == exact.num_servers

    deep = os.environ.get(SHARDED_DEEP_ENV, "") not in ("", "0")
    large = _run_sharded_child(SHARDED_LARGE_VMS)
    payload = {
        "vms": SHARDED_SMALL_VMS,
        "shards": SHARDED_SMALL_SHARDS,
        "exact_ms": round(exact_ms, 3),
        "sharded_ms": round(sharded_ms, 3),
        "speedup_vs_exact": round(speedup, 3),
        "proxy_ratio": round(proxy_ratio, 5),
        "proxy_deviation": round(deviation, 5),
        "deviation_bound": ENERGY_DEVIATION_BOUND,
        "min_speedup": SHARDED_MIN_SPEEDUP,
        "large": {
            "vms": SHARDED_LARGE_VMS,
            "wall_s": round(large["wall_s"], 3),
            "peak_rss_mb": round(large["peak_rss_mb"], 1),
            "servers": large["servers"],
            "shards": large["shards"],
            "budget_s": SHARDED_LARGE_BUDGET_S,
            "rss_budget_mb": SHARDED_LARGE_RSS_MB,
        },
    }
    if deep:
        big = _run_sharded_child(SHARDED_DEEP_VMS)
        payload["deep"] = {
            "vms": SHARDED_DEEP_VMS,
            "wall_s": round(big["wall_s"], 3),
            "peak_rss_mb": round(big["peak_rss_mb"], 1),
            "servers": big["servers"],
            "shards": big["shards"],
            "budget_s": SHARDED_DEEP_BUDGET_S,
            "rss_budget_mb": SHARDED_DEEP_RSS_MB,
        }
    path = bench_json_merge("scaling", "allocate_sharded", payload)
    lines = [
        f"sharded allocate at N={SHARDED_SMALL_VMS}: exact {exact_ms:.0f} ms, "
        f"sharded {sharded_ms:.0f} ms ({speedup:.2f}x), "
        f"energy-proxy ratio {proxy_ratio:.4f}",
        f"end-to-end N={SHARDED_LARGE_VMS}: {large['wall_s']:.1f} s, "
        f"{large['peak_rss_mb']:.0f} MB peak RSS, {large['shards']} shards",
    ]
    if deep:
        lines.append(
            f"deep N={SHARDED_DEEP_VMS}: {big['wall_s']:.1f} s, "
            f"{big['peak_rss_mb']:.0f} MB peak RSS, {big['shards']} shards"
        )
    report("\n".join(lines) + f"\npersisted to {path}")

    assert deviation <= ENERGY_DEVIATION_BOUND, (
        f"sharded energy proxy deviates {deviation:.4f} from exact, "
        f"committed bound is {ENERGY_DEVIATION_BOUND}"
    )
    assert speedup >= SHARDED_MIN_SPEEDUP, (
        f"sharded allocate only {speedup:.2f}x faster than exact at "
        f"N={SHARDED_SMALL_VMS}, gate is {SHARDED_MIN_SPEEDUP}x"
    )
    assert large["wall_s"] < SHARDED_LARGE_BUDGET_S, (
        f"N={SHARDED_LARGE_VMS} sharded allocate took {large['wall_s']:.1f} s, "
        f"budget is {SHARDED_LARGE_BUDGET_S} s"
    )
    assert large["peak_rss_mb"] < SHARDED_LARGE_RSS_MB, (
        f"N={SHARDED_LARGE_VMS} sharded allocate peaked at "
        f"{large['peak_rss_mb']:.0f} MB, budget is {SHARDED_LARGE_RSS_MB} MB"
    )
    if deep:
        assert big["wall_s"] < SHARDED_DEEP_BUDGET_S, (
            f"N={SHARDED_DEEP_VMS} sharded allocate took {big['wall_s']:.1f} s, "
            f"budget is {SHARDED_DEEP_BUDGET_S} s"
        )
        assert big["peak_rss_mb"] < SHARDED_DEEP_RSS_MB, (
            f"N={SHARDED_DEEP_VMS} sharded allocate peaked at "
            f"{big['peak_rss_mb']:.0f} MB, budget is {SHARDED_DEEP_RSS_MB} MB"
        )


def test_churn_gate(report, bench_json_merge):
    """Sustained churn at N=10k through the incremental-membership stack.

    A :class:`~repro.sim.churn.ChurnEngine` drives admit/decide/retire
    over a synthesized arrival–departure feed against the sharded
    allocator.  Because membership deltas invalidate only the shards
    (and horizon rows) they touch, warm periods must not pay
    rebuild-sized spikes: the gate pins the p99/p50 decide-latency
    ratio over the post-cold periods (dimensionless, compared across
    boxes by ``tools/compare_bench.py``), while the raw p99 latency and
    event throughput travel as informational keys.
    """
    traces, _membership = generate_datacenter_traces(
        DatacenterTraceConfig(
            num_vms=CHURN_VMS,
            num_clusters=64,
            seed=17,
            profile_layout="v2",
        )
    )
    period_duration_s = CHURN_SAMPLES_PER_PERIOD * traces.period_s
    events = synthesize_churn_events(
        traces.names,
        CHURN_PERIODS,
        period_duration_s,
        events_per_period=CHURN_EVENTS_PER_PERIOD,
        seed=17,
    )
    manager = PowerManager(
        ManagerConfig(
            n_cores=XEON_E5410.n_cores,
            freq_levels_ghz=XEON_E5410.freq_levels_ghz,
            allocator="sharded",
            sharding=ShardingConfig(),
        )
    )
    engine = ChurnEngine(
        manager, traces, events, samples_per_period=CHURN_SAMPLES_PER_PERIOD
    )

    start = time.perf_counter()
    records = engine.run(CHURN_PERIODS)
    wall_s = time.perf_counter() - start

    assert len(records) == CHURN_PERIODS
    assert all(record.active_vms > 0 for record in records)
    total_events = sum(r.arrivals + r.departures for r in records)
    assert total_events == len(events)

    # The cold first period pays the initial build; the gate watches the
    # steady churn regime that follows.
    warm = np.array([record.decide_ms for record in records[1:]])
    p50_ms = float(np.percentile(warm, 50.0))
    p99_ms = float(np.percentile(warm, 99.0))
    ratio = p99_ms / p50_ms
    events_per_s = total_events / wall_s
    cold_ms = records[0].decide_ms

    payload = {
        "vms": CHURN_VMS,
        "periods": CHURN_PERIODS,
        "events_per_period": CHURN_EVENTS_PER_PERIOD,
        "total_events": total_events,
        "active_mean": round(
            float(np.mean([r.active_vms for r in records])), 1
        ),
        "cold_ms": round(cold_ms, 3),
        "p50_ms": round(p50_ms, 3),
        "p99_ms": round(p99_ms, 3),
        "p99_vs_p50": round(ratio, 3),
        "ratio_max": CHURN_LATENCY_RATIO_MAX,
        "events_per_s": round(events_per_s, 3),
        "wall_s": round(wall_s, 3),
    }
    path = bench_json_merge("scaling", "churn", payload)
    report(
        f"sustained churn at N={CHURN_VMS}: decide p50 {p50_ms:.0f} ms, "
        f"p99 {p99_ms:.0f} ms (ratio {ratio:.2f}), cold {cold_ms:.0f} ms, "
        f"{events_per_s:.1f} events/s over {len(events)} events"
        f"\npersisted to {path}"
    )
    assert ratio <= CHURN_LATENCY_RATIO_MAX, (
        f"churn p99/p50 decide ratio {ratio:.2f} exceeds "
        f"{CHURN_LATENCY_RATIO_MAX}: membership deltas are triggering "
        f"rebuild-sized spikes"
    )


SLO_FRONTIER_P99_VS_SLO_MAX = 2.0


def test_slo_frontier_gate(report, bench_json_merge):
    """Energy-vs-tail frontier: determinism, equivalence, SLO ceiling.

    Runs the fast ``slo_frontier`` experiment twice — serially and over
    a two-worker pool — and requires the two runs to be byte-identical
    (:func:`repro.experiments.slo_frontier.frontier_fingerprint`).  The
    whole pipeline is seeded, so the worst p99-vs-SLO ratio is a
    *deterministic* dimensionless number: ``tools/compare_bench.py``
    gates it against the committed trajectory, and this test caps it
    absolutely — a placement or dispatch regression that saturates the
    scored regions trips the ceiling on the box that runs it.
    """
    start = time.perf_counter()
    serial = slo_frontier.run(fast=True)
    frontier_ms = (time.perf_counter() - start) * 1e3
    pooled = slo_frontier.run(fast=True, workers=2)
    equal = slo_frontier.frontier_fingerprint(serial) == slo_frontier.frontier_fingerprint(pooled)

    data = serial.data
    frontier = data["frontier"]
    worst = data["worst_p99_vs_slo"]
    worst_p99_ms = max(
        point["p99_s"] for points in frontier.values() for point in points
    ) * 1e3
    monotone = data["p99_monotone_in_load"]

    payload = {
        "policies": len(data["policies"]),
        "load_points": len(data["load_points"]),
        "slo_s": data["slo_s"],
        "worst_p99_vs_slo": round(worst, 4),
        "p99_ms": round(worst_p99_ms, 3),
        "monotone_policies": sum(monotone.values()),
        "serial_equals_parallel": 1.0 if equal else 0.0,
        "ratio_max": SLO_FRONTIER_P99_VS_SLO_MAX,
        "frontier_ms": round(frontier_ms, 3),
    }
    path = bench_json_merge("scaling", "slo_frontier", payload)
    report(
        f"slo_frontier: {len(data['policies'])} policies x "
        f"{len(data['load_points'])} load points, worst p99/SLO {worst:.3f} "
        f"(p99 {worst_p99_ms:.0f} ms vs SLO {data['slo_s'] * 1e3:.0f} ms), "
        f"{sum(monotone.values())}/{len(monotone)} policies monotone, "
        f"serial==pooled {equal}, wall {frontier_ms:.0f} ms"
        f"\npersisted to {path}"
    )
    assert equal, "serial and workers=2 frontier runs must be byte-identical"
    for name, points in frontier.items():
        assert len(points) == len(data["load_points"]), name
        assert all(point["completed"] > 0 for point in points), name
    assert worst <= SLO_FRONTIER_P99_VS_SLO_MAX, (
        f"worst p99/SLO ratio {worst:.3f} exceeds "
        f"{SLO_FRONTIER_P99_VS_SLO_MAX}: the scored placements are "
        f"saturating under the frontier's calibrated load grid"
    )
