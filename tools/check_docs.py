#!/usr/bin/env python
"""Docs health checker (run by the CI docs job and tests/test_docs.py).

Three checks over ``README.md`` and ``docs/*.md``:

1. **Intra-repo links resolve** — every relative markdown link target
   must exist in the repository (external ``http(s)``/``mailto`` links
   and pure anchors are skipped).
2. **Documented CLI commands parse** — every fenced-code-block line
   invoking ``python -m repro.cli`` is re-parsed through the real
   argparse parser (``repro.cli.build_parser``), so renaming an
   experiment or a flag breaks the build instead of silently rotting
   the docs.
3. **README benchmark table is fresh** — the N=1000 numbers quoted in
   README must agree with ``BENCH_scaling.json`` within a slack factor
   (wall-clock timings are noisy run to run; the check catches stale
   *kernels* — a number from before an optimisation landed — not
   box-to-box jitter).  The same holds for README's N=100k claim
   ("~160 s / 1.1 GB peak RSS") against ``allocate_sharded.deep``; a
   missing ``deep`` block is an error, because regenerating
   ``allocate_sharded`` without ``REPRO_SHARDED_DEEP=1`` drops it.

Exit status 0 when all checks pass; 1 with a per-finding report
otherwise.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```")
_CLI = re.compile(r"python -m repro\.cli\s+(.*)$")


def check_links(errors: list[str]) -> None:
    for doc in DOC_FILES:
        for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (doc.parent / path).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{doc.relative_to(REPO_ROOT)}:{lineno}: broken link -> {target}"
                    )


def iter_code_lines(doc: Path):
    in_fence = False
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            yield lineno, line


def check_cli_commands(errors: list[str]) -> None:
    from repro.cli import build_parser

    parser = build_parser()
    for doc in DOC_FILES:
        for lineno, line in iter_code_lines(doc):
            match = _CLI.search(line)
            if match is None:
                continue
            try:
                args = shlex.split(match.group(1), comments=True)
            except ValueError as error:
                errors.append(
                    f"{doc.relative_to(REPO_ROOT)}:{lineno}: unparsable command ({error})"
                )
                continue
            try:
                parser.parse_args(args)
            except SystemExit as status:
                if status.code not in (0, None):
                    errors.append(
                        f"{doc.relative_to(REPO_ROOT)}:{lineno}: CLI rejects "
                        f"documented command: python -m repro.cli {' '.join(args)}"
                    )


#: Quoted README timings may drift from the committed JSON by at most
#: this factor in either direction.  Run-to-run noise on one box is
#: well under 1.5x; a stale pre-optimisation number (e.g. the 3x
#: allocate win) is well over it.
_BENCH_SLACK = 1.5

_FLOAT = re.compile(r"\d+(?:\.\d+)?")

#: README's N=100k sharded claim: wall seconds and peak RSS in GB.
_DEEP_CLAIM = re.compile(r"~(\d+(?:\.\d+)?)\s*s\s*/\s*(\d+(?:\.\d+)?)\s*GB\s+peak\s+RSS")


def _row_numbers(readme: str, label: str) -> list[float] | None:
    """The numeric cells of the README table row containing ``label``."""
    for line in readme.splitlines():
        if label in line and line.lstrip().startswith("|"):
            cells = line.split("|")[2:]
            return [float(m) for cell in cells for m in _FLOAT.findall(cell)]
    return None


def check_bench_table(errors: list[str]) -> None:
    readme = (REPO_ROOT / "README.md").read_text()
    bench_path = REPO_ROOT / "BENCH_scaling.json"
    if not bench_path.exists():
        errors.append("BENCH_scaling.json missing (README quotes it)")
        return
    bench = json.loads(bench_path.read_text())
    kernels = bench["kernels"]["sizes"]["1000"]
    replay = bench["replay"]["modes"]
    synthesis = bench["synthesis"]
    dcgen = bench["datacenter_traces"]
    sweep = bench["allocate_sweep"]
    horizon = bench["horizon_percentile"]
    faulty = bench["replay_faulty"]
    checkpoint = bench["replay_checkpoint"]
    sharded = bench["allocate_sharded"]
    expected = {
        "cost-matrix build": [kernels["build_ms"]],
        "streaming cost update": [kernels["update_ms"]],
        "indexed fast path, cold": [kernels["allocate_ms"]],
        "warm cross-period sweep": [sweep["warm_ms"]],
        "profile v2 vs v1": [dcgen["v2_ms"], dcgen["v1_ms"]],
        "synthesis v2 vs v1": [synthesis["v2_ms"], synthesis["v1_ms"]],
        "static / dynamic v/f": [
            replay["static"]["per_period_ms"],
            replay["dynamic"]["per_period_ms"],
        ],
        "p2 fold vs rebuild": [horizon["p2_fold_ms"], horizon["rebuild_ms"]],
        "fault-mode replay": [faulty["variants"]["faulty"]["per_period_ms"]],
        "checkpointed replay": [
            checkpoint["variants"]["checkpointed"]["per_period_ms"]
        ],
        "sharded vs exact ALLOCATE": [
            sharded["sharded_ms"],
            sharded["exact_ms"],
        ],
        "sustained churn decide": [
            bench["churn"]["p50_ms"],
            bench["churn"]["p99_ms"],
        ],
        "SLO frontier worst p99": [
            bench["slo_frontier"]["p99_ms"],
            bench["slo_frontier"]["worst_p99_vs_slo"],
        ],
    }
    for label, values in expected.items():
        quoted = _row_numbers(readme, label)
        if quoted is None:
            errors.append(f"README.md: missing N=1000 benchmark row for {label!r}")
            continue
        if len(quoted) != len(values):
            errors.append(
                f"README.md: benchmark row for {label!r} quotes {len(quoted)} "
                f"number(s), BENCH_scaling.json has {len(values)}"
            )
            continue
        for quote, value in zip(quoted, values, strict=True):
            _check_drift(errors, f"N=1000 benchmark row for {label!r}", quote, value)
    check_deep_claim(readme, sharded, errors)


def check_deep_claim(readme: str, sharded: dict, errors: list[str]) -> None:
    """README's N=100k sharded claim against ``allocate_sharded.deep``."""
    claim = _DEEP_CLAIM.search(readme)
    if claim is None:
        errors.append("README.md: missing the N=100k '~<s> s / <GB> GB peak RSS' claim")
        return
    deep = sharded.get("deep")
    if deep is None:
        errors.append(
            "BENCH_scaling.json: allocate_sharded.deep is missing, but README quotes "
            "its N=100k run (regenerate allocate_sharded with REPRO_SHARDED_DEEP=1)"
        )
        return
    _check_drift(errors, "N=100k wall time (s)", float(claim[1]), deep["wall_s"])
    _check_drift(
        errors, "N=100k peak RSS (MB)", float(claim[2]) * 1024.0, deep["peak_rss_mb"]
    )


def _check_drift(errors: list[str], what: str, quote: float, value: float) -> None:
    if not value / _BENCH_SLACK <= quote <= value * _BENCH_SLACK:
        errors.append(
            f"README.md: stale {what}: quotes {quote} vs {value} in "
            f"BENCH_scaling.json (allowed drift {_BENCH_SLACK}x)"
        )


def main() -> int:
    errors: list[str] = []
    check_links(errors)
    check_cli_commands(errors)
    check_bench_table(errors)
    if errors:
        print(f"docs check FAILED ({len(errors)} finding(s)):")
        for error in errors:
            print(f"  - {error}")
        return 1
    docs = ", ".join(str(d.relative_to(REPO_ROOT)) for d in DOC_FILES)
    print(f"docs check passed ({docs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
