"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload replay_exact --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run.
Either way the outputs are checked, and the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.  Run it from the repository root; it
imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path

import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up samples per untraced run: at least ``SETUP_MIN``, and more (up to
#: ``SETUP_MAX``) until they add up to ``SETUP_BUDGET_S``; ``setup_s`` is
#: their median, so a sub-second set-up still repeats from run to run.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 15, 4.0

END_TO_END = {
    "setup_s": "s",
    "vm_periods_per_s": "1/s",
    "period_p50_ms": "ms",
    "period_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "servers_mean": "count",
    "energy_proxy_ghz": "GHz",
    "energy_kwh": "kWh",
    "violation_pct": "%",
    "migrations": "count",
}

#: Per-layer metric -> (layers summed, field of tracer.per_layer, unit).
PER_LAYER = {
    "engine.replay.self_ms": (("engine.replay",), "self_ms", "ms"),
    "approaches.decide.self_ms": (("approaches.decide",), "self_ms", "ms"),
    "correlation.horizon_push.self_ms": (("correlation.horizon_push",), "self_ms", "ms"),
    "correlation.horizon_push.calls": (("correlation.horizon_push",), "calls", "count"),
    "correlation.cost_build.self_ms": (("correlation.cost_build",), "self_ms", "ms"),
    "correlation.cost_build.calls": (("correlation.cost_build",), "calls", "count"),
    "allocation.allocate.self_ms": (("allocation.allocate",), "self_ms", "ms"),
    "allocation.allocate.calls": (("allocation.allocate",), "calls", "count"),
    "allocation.allocate.vms": (("allocation.allocate",), "amount", "count"),
    "allocation.evacuate.self_ms": (("allocation.evacuate",), "self_ms", "ms"),
    "allocation.evacuate.calls": (("allocation.evacuate",), "calls", "count"),
    "sharding.allocate.self_ms": (("sharding.allocate",), "self_ms", "ms"),
    "sharding.shards": (("sharding.allocate",), "amount", "count"),
    "vf_control.frequency.self_ms": (("vf_control.frequency",), "self_ms", "ms"),
    "vf_control.frequency.calls": (("vf_control.frequency",), "calls", "count"),
    "manager.admit.self_ms": (("manager.admit",), "self_ms", "ms"),
    "manager.retire.self_ms": (("manager.retire",), "self_ms", "ms"),
    "manager.observe.self_ms": (("manager.observe",), "self_ms", "ms"),
    "manager.predict.self_ms": (("manager.predict",), "self_ms", "ms"),
    "manager.decide.self_ms": (("manager.decide",), "self_ms", "ms"),
    "manager.membership.events": (("manager.admit", "manager.retire"), "amount", "count"),
    "faults.evacuate_fleet.self_ms": (("faults.evacuate_fleet",), "self_ms", "ms"),
    "faults.evacuees": (("faults.evacuate_fleet",), "amount", "count"),
    "checkpoint.save.self_ms": (("checkpoint.save",), "self_ms", "ms"),
    "checkpoint.save.calls": (("checkpoint.save",), "calls", "count"),
    "checkpoint.save.bytes": (("checkpoint.save",), "amount", "bytes"),
    "churn.run.self_ms": (("churn.run",), "self_ms", "ms"),
}
TRACE_OVERHEAD = "trace.overhead"


def check(outcome) -> tuple[int, int]:
    """``(attempted, failed)`` VM-periods over every served placement.

    A VM-period fails unless the VM is placed exactly once, on a server
    index below the fleet size that is not down that period; a placed VM
    that is not in the period's population fails too.
    """
    attempted = failed = 0
    for period, (names, placement) in enumerate(outcome.served):
        down = outcome.down[period] if outcome.down else frozenset()
        assignment = placement.assignment
        attempted += len(names)
        for vm in names:
            server = assignment.get(vm)
            if server is None or not 0 <= server < outcome.fleet or server in down:
                failed += 1
        failed += len(set(assignment) - set(names))
    return attempted, failed


def measured(workload, clock: tr.PeriodClock) -> list[float]:
    """Lengths (s) of the measured periods: every one after the set-up decides."""
    bounds = clock.entries[workload.warm_decides :] + [clock.ended]
    return [(b - a) / 1e9 for a, b in zip(bounds, bounds[1:], strict=False)]


def run_untraced(workload, seed: int, periods: int) -> tuple[dict, object, list[str]]:
    """Set up several times, and run the last set-up to the end."""
    warm = workload.warm_decides
    setups, digests = [], []
    while len(setups) < SETUP_MIN - 1 or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX - 1
    ):
        clock = tr.PeriodClock(stop_at=warm + 1)
        try:
            workload.run(seed, periods, clock, OUT)
        except tr.Stopped:
            pass
        setups.append((clock.entries[warm] - clock.started) / 1e9)
        digests.append(clock.digest())
    clock = tr.PeriodClock()
    outcome = workload.run(seed, periods, clock, OUT)
    setups.append((clock.entries[warm] - clock.started) / 1e9)
    digests.append(clock.digest(warm))
    problems = [] if len(set(digests)) == 1 else ["set-up decisions differ between repeats"]

    lengths = measured(workload, clock)
    vm_periods = sum(len(names) for names, _p, _f in clock.decisions[warm:])
    metrics = {
        "setup_s": statistics.median(setups),
        "vm_periods_per_s": vm_periods / sum(lengths),
        "period_p50_ms": statistics.median(lengths) * 1e3,
        "period_p90_ms": statistics.quantiles(lengths, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **outcome.simulated,
    }
    print(
        f"perfbench: {workload.name} seed={seed} measured_periods={len(lengths)} "
        f"setup_samples_s={[round(s, 4) for s in setups]} digest={clock.digest()}"
    )
    return metrics, outcome, problems


def run_traced(workload, seed: int, periods: int) -> tuple[dict, object, list[str]]:
    """An untraced probe over the first half of the measured periods, then a
    traced run of the same inputs; the probe gives ``trace.overhead``."""
    warm = workload.warm_decides
    half = max(1, (periods - warm) // 2)
    probe = tr.PeriodClock(stop_at=warm + half + 1)
    try:
        workload.run(seed, periods, probe, OUT)
    except tr.Stopped:
        pass
    tracer = tr.Tracer()
    tracer.install()
    try:
        clock = tr.PeriodClock()
        outcome = workload.run(seed, periods, clock, OUT)
    finally:
        tracer.uninstall()
    problems = []
    if probe.digest() != clock.digest(warm + half):
        problems.append("traced decisions differ from untraced ones")

    window = (clock.entries[warm], clock.ended)
    layers = tr.per_layer(tracer.spans, window, len(measured(workload, clock)))
    metrics = {
        name: sum(layers[layer][field] for layer in sources)
        for name, (sources, field, _unit) in PER_LAYER.items()
    }
    metrics[TRACE_OVERHEAD] = (clock.entries[warm + half] - clock.entries[warm]) / (
        probe.entries[warm + half] - probe.entries[warm]
    )
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{seed}.jsonl"
    with open(spans_path, "w") as stream:
        for record in tracer.spans:
            stream.write(json.dumps(record) + "\n")
    print(
        f"perfbench: {workload.name} seed={seed} traced spans={len(tracer.spans)} "
        f"-> {spans_path.relative_to(ROOT)} digest={clock.digest()}"
    )
    return metrics, outcome, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: the loop is single-process and the host may be
    # shared, so more threads only add scheduling noise to a closed loop.
    # This must happen before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads as wl
    except ImportError as error:
        print(f"perfbench: cannot import the program from src/: {error}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    periods = workload.periods(args.seconds)
    if args.trace:
        values, outcome, problems = run_traced(workload, args.seed, periods)
        units = {name: unit for name, (_s, _f, unit) in PER_LAYER.items()}
        units[TRACE_OVERHEAD] = "ratio"
    else:
        values, outcome, problems = run_untraced(workload, args.seed, periods)
        units = END_TO_END
    attempted, failed = check(outcome)
    if not all(math.isfinite(value) for value in values.values()):
        problems.append("a metric is not finite")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
