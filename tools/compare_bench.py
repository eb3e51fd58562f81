#!/usr/bin/env python
"""Bench-trajectory comparison (run by CI after the scaling gates).

``benchmarks/bench_scaling.py`` persists its numbers to
``BENCH_scaling.json``; the copy at the repository root is committed, so
every PR's numbers travel with it.  This tool diffs a freshly generated
trajectory (CI writes one to ``bench-results/BENCH_scaling.json``)
against the committed file and fails on:

1. **Missing gate keys** — a section or gated entry present in the
   committed trajectory but absent from the fresh one means a gate was
   renamed, retired, or silently skipped; either way the committed JSON
   and the bench suite have drifted apart and must be reconciled in the
   same PR.
2. **>25% regressions on gated entries** — the *dimensionless* gate
   numbers (speedups, ratios, deviation bounds).  Those compare
   meaningfully across machines: a speedup is a property of the kernel,
   not the box, so a fresh run on any hardware should land near the
   committed value.

Raw wall-clock entries (milliseconds) are *reported* but never gated —
CI boxes and the single-core container the committed numbers come from
differ too much for absolute-time comparisons; their hard budgets are
enforced by ``bench_scaling.py`` itself on the box that runs it.

Usage::

    python tools/compare_bench.py bench-results/BENCH_scaling.json
    python tools/compare_bench.py fresh.json --committed BENCH_scaling.json \
        --max-regression 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Dimensionless gated entries: ``(section, dotted key, direction)``.
#: ``"higher"`` means larger is better (a speedup), ``"lower"`` means
#: smaller is better (a cost ratio or an approximation error).
GATED_ENTRIES: tuple[tuple[str, str, str], ...] = (
    ("synthesis", "speedup", "higher"),
    # Traced-memory ratios count bytes, so they are the same on any box.
    ("synthesis", "peak_vs_output", "lower"),
    ("decide_memory", "retained_n2", "lower"),
    ("decide_memory", "peak_transient_n2", "lower"),
    ("decide_memory", "p2_transient_n2", "lower"),
    ("datacenter_traces", "speedup", "higher"),
    ("horizon_percentile", "speedup_vs_rebuild", "higher"),
    ("horizon_percentile", "ratio_vs_peak", "lower"),
    ("horizon_percentile", "max_rel_deviation", "lower"),
    ("replay_faulty", "masked_vs_plain", "lower"),
    ("replay_faulty", "faulty_vs_plain", "lower"),
    ("replay_checkpoint", "disabled_vs_plain", "lower"),
    ("replay_checkpoint", "checkpoint_vs_plain", "lower"),
    ("allocate_sharded", "speedup_vs_exact", "higher"),
    ("allocate_sharded", "proxy_ratio", "lower"),
    ("churn", "p99_vs_p50", "lower"),
    # slo_frontier is fully seeded, so both entries are deterministic:
    # the ratio must land exactly on the committed value on any box, and
    # the equivalence flag is 1.0 (byte-identical serial vs pooled).
    ("slo_frontier", "worst_p99_vs_slo", "lower"),
    ("slo_frontier", "serial_equals_parallel", "higher"),
)

#: Wall-clock entries shown for context (never gated; box-dependent).
INFORMATIONAL_ENTRIES: tuple[tuple[str, str], ...] = (
    ("kernels", "sizes.1000.build_ms"),
    ("kernels", "sizes.1000.update_ms"),
    ("kernels", "sizes.1000.allocate_ms"),
    ("replay", "modes.static.per_period_ms"),
    ("replay", "modes.dynamic.per_period_ms"),
    ("replay_faulty", "variants.faulty.per_period_ms"),
    ("replay_checkpoint", "variants.checkpointed.per_period_ms"),
    ("synthesis", "v2_ms"),
    ("datacenter_traces", "v2_ms"),
    ("allocate_sweep", "warm_ms"),
    ("horizon_percentile", "p2_fold_ms"),
    ("allocate_sharded", "sharded_ms"),
    ("allocate_sharded", "large.wall_s"),
    ("allocate_sharded", "deep.wall_s"),
    ("allocate_sharded", "deep.peak_rss_mb"),
    ("churn", "p99_ms"),
    ("churn", "events_per_s"),
    ("slo_frontier", "p99_ms"),
    ("slo_frontier", "frontier_ms"),
)


def resolve(data: dict, section: str, dotted: str):
    """Look ``section.dotted.key`` up, returning None when absent."""
    node = data.get(section)
    for part in dotted.split("."):
        if not isinstance(node, dict):
            return None
        node = node.get(part)
    return node


def compare(
    fresh: dict, committed: dict, max_regression: float = 0.25
) -> tuple[list[str], list[str]]:
    """Diff two trajectories; returns ``(failures, report_lines)``.

    A gated entry regresses when it moves against its direction by more
    than ``max_regression`` relative to the committed value.  Entries
    (or whole sections) present in the committed trajectory but missing
    from the fresh one are failures; entries missing from *both* are
    skipped, so retiring a gate only requires deleting its committed
    key.
    """
    failures: list[str] = []
    report: list[str] = []

    for section in committed:
        if section not in fresh:
            failures.append(f"section {section!r} missing from fresh trajectory")

    for section, dotted, direction in GATED_ENTRIES:
        reference = resolve(committed, section, dotted)
        if reference is None:
            continue  # retired gate: committed key already deleted
        value = resolve(fresh, section, dotted)
        label = f"{section}.{dotted}"
        if value is None:
            failures.append(f"gate key {label} missing from fresh trajectory")
            continue
        if not reference > 0:
            failures.append(f"gate key {label}: committed value {reference} unusable")
            continue
        change = value / reference - 1.0
        worse = -change if direction == "higher" else change
        status = "REGRESSION" if worse > max_regression else "ok"
        report.append(
            f"  {label:<45} {reference:>10.3f} -> {value:>10.3f} "
            f"({change:+.1%}, {direction} is better) {status}"
        )
        if worse > max_regression:
            failures.append(
                f"{label} regressed {worse:.1%} ({reference} -> {value}, "
                f"allowed {max_regression:.0%})"
            )

    for section, dotted in INFORMATIONAL_ENTRIES:
        reference = resolve(committed, section, dotted)
        value = resolve(fresh, section, dotted)
        if reference is None or value is None or not reference > 0:
            continue
        report.append(
            f"  {f'{section}.{dotted}':<45} {reference:>10.3f} -> {value:>10.3f} "
            f"({value / reference - 1.0:+.1%}) [informational]"
        )

    return failures, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a fresh BENCH_scaling.json against the committed one."
    )
    parser.add_argument("fresh", help="freshly generated trajectory JSON")
    parser.add_argument(
        "--committed",
        default=str(REPO_ROOT / "BENCH_scaling.json"),
        help="committed trajectory to compare against (default: repo root)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed relative regression on gated entries (default: 0.25)",
    )
    args = parser.parse_args(argv)

    try:
        fresh = json.loads(Path(args.fresh).read_text())
        committed = json.loads(Path(args.committed).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench comparison FAILED: cannot load trajectory ({error})")
        return 1

    failures, report = compare(fresh, committed, args.max_regression)
    print(f"bench trajectory: {args.fresh} vs {args.committed}")
    for line in report:
        print(line)
    if failures:
        print(f"bench comparison FAILED ({len(failures)} finding(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench comparison passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
