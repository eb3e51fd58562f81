#!/usr/bin/env python
"""Serve-mode smoke test: scripted feed, SIGTERM mid-run, resume.

CI's end-to-end proof that ``repro serve`` — the churn-driven control
loop behind the incremental-membership stack — survives a real service
restart:

1. synthesize a scripted arrival–departure feed and write it to disk,
2. run an uninterrupted reference ``serve`` over the feed, collecting
   its per-period decision reports,
3. re-run with checkpointing enabled, wait for the first checkpoint,
   SIGTERM the process, and require a graceful exit that reports the
   interruption,
4. re-run the same command line with ``--resume`` and require it to
   pick up at the interrupted period and finish,
5. stitch the pre-kill and post-resume period reports together and
   compare them field-by-field (decide latency excluded — it is
   wall-clock) against the uninterrupted reference.

Exit code 0 when the stitched run matches the reference, 1 on any
divergence or setup failure.  Usage:
``python tools/serve_smoke.py [--allocator {exact,sharded}] [--workdir DIR]``
(``--allocator`` is passed through to ``repro serve``; default ``exact``).
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.churn import synthesize_churn_events  # noqa: E402
from repro.traces.datacenter import (  # noqa: E402
    DatacenterTraceConfig,
    generate_datacenter_traces,
)

NUM_VMS = 600
PERIODS = 8
SAMPLES_PER_PERIOD = 24
SEED = 23
CKPT_EVERY = 1
KILL_WAIT_S = 60.0

_PERIOD_LINE = re.compile(r"^period\s+(\d+):")
_DECIDE_MS = re.compile(r"\s*\d+\.\d+ ms decide,")


def _write_feed(path: Path) -> None:
    traces, _membership = generate_datacenter_traces(
        DatacenterTraceConfig(
            num_vms=NUM_VMS, num_clusters=16, seed=SEED, profile_layout="v2"
        )
    )
    period_duration_s = SAMPLES_PER_PERIOD * traces.period_s
    events = synthesize_churn_events(
        traces.names, PERIODS, period_duration_s, events_per_period=4, seed=SEED
    )
    lines = [f"{event.time_s},{event.action},{event.vm}" for event in events]
    path.write_text("\n".join(lines) + "\n")


def _serve_argv(
    feed: Path, allocator: str, ckpt_dir: Path | None, resume: bool
) -> list[str]:
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--events",
        str(feed),
        "--num-vms",
        str(NUM_VMS),
        "--periods",
        str(PERIODS),
        "--samples-per-period",
        str(SAMPLES_PER_PERIOD),
        "--seed",
        str(SEED),
        "--report-every",
        "1",
        "--allocator",
        allocator,
    ]
    if ckpt_dir is not None:
        argv += [
            "--checkpoint-dir",
            str(ckpt_dir),
            "--checkpoint-every",
            str(CKPT_EVERY),
        ]
    if resume:
        argv.append("--resume")
    return argv


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _stable_period_lines(output: str) -> dict[int, str]:
    """Map period -> report line with the wall-clock decide field removed."""
    lines: dict[int, str] = {}
    for line in output.splitlines():
        match = _PERIOD_LINE.match(line)
        if match:
            lines[int(match.group(1))] = _DECIDE_MS.sub("", line)
    return lines


def _fail(message: str) -> int:
    print(f"serve smoke FAILED: {message}", file=sys.stderr)
    return 1


def run_smoke(workdir: Path, allocator: str) -> int:
    feed = workdir / "events.csv"
    _write_feed(feed)
    env = _env()

    print(
        f"serve smoke: reference run ({NUM_VMS} VMs, {PERIODS} periods, "
        f"{allocator} allocator)"
    )
    reference = subprocess.run(
        _serve_argv(feed, allocator, None, resume=False),
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    if reference.returncode != 0:
        return _fail(f"reference run exited {reference.returncode}:\n{reference.stderr}")
    want = _stable_period_lines(reference.stdout)
    if sorted(want) != list(range(PERIODS)):
        return _fail(f"reference run reported periods {sorted(want)}")

    ckpt_dir = workdir / "ck"
    print("serve smoke: checkpointed run, SIGTERM after the first checkpoint")
    child = subprocess.Popen(
        _serve_argv(feed, allocator, ckpt_dir, resume=False),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + KILL_WAIT_S
    while time.monotonic() < deadline:
        if any(ckpt_dir.glob("*.ckpt")):
            break
        if child.poll() is not None:
            out, err = child.communicate()
            return _fail(
                "serve exited before the first checkpoint "
                f"(code {child.returncode}):\n{out}\n{err}"
            )
        time.sleep(0.05)
    else:
        child.kill()
        return _fail(f"no checkpoint appeared within {KILL_WAIT_S} s")
    child.send_signal(signal.SIGTERM)
    try:
        out, err = child.communicate(timeout=KILL_WAIT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        return _fail("serve did not exit after SIGTERM")
    if child.returncode != 0:
        return _fail(f"interrupted run exited {child.returncode}:\n{err}")
    if "serve: interrupted at period" not in out:
        return _fail(f"interrupted run did not report the interruption:\n{out}")
    pre_kill = _stable_period_lines(out)
    resume_at = max(pre_kill) + 1 if pre_kill else 0

    print(f"serve smoke: resuming at period {resume_at}")
    resumed = subprocess.run(
        _serve_argv(feed, allocator, ckpt_dir, resume=True),
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    if resumed.returncode != 0:
        return _fail(f"resumed run exited {resumed.returncode}:\n{resumed.stderr}")
    match = re.search(r"serve: resumed at period (\d+)", resumed.stdout)
    if not match:
        return _fail(f"resumed run did not report a resume point:\n{resumed.stdout}")
    resumed_period = int(match.group(1))
    if resumed_period < 1:
        return _fail(f"resume point {resumed_period} means the kill landed too early")
    post_resume = _stable_period_lines(resumed.stdout)

    stitched = {p: line for p, line in pre_kill.items() if p < resumed_period}
    stitched.update(post_resume)
    if sorted(stitched) != list(range(PERIODS)):
        return _fail(
            f"stitched run covers periods {sorted(stitched)}, expected 0..{PERIODS - 1}"
        )
    for period in range(PERIODS):
        if stitched[period] != want[period]:
            return _fail(
                f"period {period} diverged after resume:\n"
                f"  reference: {want[period]}\n"
                f"  stitched:  {stitched[period]}"
            )
    print(
        f"serve smoke OK: killed at period {resumed_period}, resumed, "
        f"all {PERIODS} period reports match the uninterrupted run"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--allocator",
        choices=("exact", "sharded"),
        default="exact",
        help="allocation backend passed to repro serve (default: exact)",
    )
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="working directory (default: a fresh temp dir)",
    )
    args = parser.parse_args()
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        return run_smoke(args.workdir, args.allocator)
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        return run_smoke(Path(tmp), args.allocator)


if __name__ == "__main__":
    sys.exit(main())
