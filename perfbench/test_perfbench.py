"""Tests of the benchmark harness: span arithmetic, names, determinism.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracer as tr
import workloads as wl
from repro.sim.faults import FaultConfig
from repro.traces.trace import ReferenceSpec

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(name, start, end, parent=-1, amount=0.0):
    return [name, start, end, parent, amount]


NESTED = [
    span("outer", 0, 100),
    span("mid", 10, 40, 0),
    span("leaf", 20, 30, 1, 3.0),
    span("mid", 50, 60, 0),
]


def test_self_time_subtracts_direct_children():
    assert tr.self_times(NESTED, (0, 100)) == [60, 20, 10, 10]


def test_self_time_clips_to_the_window():
    # outer 25..55 = 30, minus mid 25..40 and mid 50..55; mid minus leaf 25..30.
    assert tr.self_times(NESTED, (25, 55)) == [10, 10, 5, 5]


def test_per_layer_counts_calls_that_start_in_the_window(monkeypatch):
    entries = tuple(tr.EntryPoint(name, ()) for name in ("outer", "mid", "leaf"))
    monkeypatch.setattr(tr, "ENTRY_POINTS", entries)
    layers = tr.per_layer(NESTED, (15, 100), periods=2)
    # outer 15..100 = 85 minus mids 15..40 and 50..60; only the second mid starts inside.
    assert layers["outer"] == {"self_ms": 50 / 2e6, "calls": 0.0, "amount": 0.0}
    assert layers["mid"] == {"self_ms": 25 / 2e6, "calls": 0.5, "amount": 0.0}
    assert layers["leaf"] == {"self_ms": 10 / 2e6, "calls": 0.5, "amount": 1.5}


LAYER_SOURCE = """
class Layer:
    @classmethod
    def build(cls, n):
        return cls, n

    @staticmethod
    def helper(n):
        return n + 1

    def solve(self, n):
        return self.build(n)[1]

def frequency(n):
    return 2 * n
"""

CALLER_SOURCE = """
from perfbench_fake_layer import Layer, frequency

def decide(n):
    return Layer().solve(n) + frequency(n)
"""


@pytest.fixture()
def fake(monkeypatch):
    modules = []
    sources = (("perfbench_fake_layer", LAYER_SOURCE), ("perfbench_fake_caller", CALLER_SOURCE))
    for name, source in sources:
        module = types.ModuleType(name)
        monkeypatch.setitem(sys.modules, name, module)
        exec(source, module.__dict__)
        modules.append(module)
    return modules


def test_install_wraps_methods_classmethods_and_imported_names(fake):
    layer, caller = fake
    original_build = layer.Layer.__dict__["build"]
    original_frequency = layer.frequency
    tracer = tr.Tracer()
    tracer.install(
        (
            tr.EntryPoint("layer.solve", ((layer.__name__, "Layer.solve"),)),
            tr.EntryPoint("layer.build", ((layer.__name__, "Layer.build"),)),
            tr.EntryPoint("layer.helper", ((layer.__name__, "Layer.helper"),)),
            tr.EntryPoint(
                "layer.frequency",
                ((layer.__name__, "frequency"), (caller.__name__, "frequency")),
                lambda args, result: float(result),
            ),
        )
    )
    try:
        assert caller.decide(3) == 9
        assert layer.Layer.build(4) == (layer.Layer, 4)
        assert layer.Layer.helper(1) == 2
        assert layer.frequency is caller.frequency
    finally:
        tracer.uninstall()
    names = [record[tr.NAME] for record in tracer.spans]
    assert names == ["layer.solve", "layer.build", "layer.frequency", "layer.build", "layer.helper"]
    assert [record[tr.PARENT] for record in tracer.spans] == [-1, 0, -1, -1, -1]
    assert tracer.spans[2][tr.AMOUNT] == 6.0
    assert layer.Layer.__dict__["build"] is original_build
    assert caller.frequency is original_frequency and layer.frequency is original_frequency


def test_every_metric_name_and_unit_fits_the_charset():
    sections = ("end_to_end", "per_layer")
    names = [metric["name"] for key in sections for metric in BENCHMARK[key]]
    names += [workload["name"] for workload in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for key in sections:
        for metric in BENCHMARK[key]:
            assert UNIT.fullmatch(metric["unit"]), metric


def test_harness_reports_exactly_the_declared_metrics():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    expected = {name: unit for name, (_s, _f, unit) in run.PER_LAYER.items()}
    assert per_layer == {**expected, run.TRACE_OVERHEAD: "ratio"}
    layers = {entry.layer for entry in tr.ENTRY_POINTS}
    assert {s for sources, _f, _u in run.PER_LAYER.values() for s in sources} == layers
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def _tiny(kind, seed, clock, tmp_path):
    if kind == "churn":
        return wl.churn_sharded(seed, 5, clock, tmp_path, pool=240, fleet=120)
    return wl.replay_workload(
        seed,
        6,
        clock,
        num_vms=40,
        fleet=30,
        reference=ReferenceSpec(),
        horizon_mode="exact",
        faults=FaultConfig(seed=seed, crash_rate=0.05),
    )


@pytest.mark.parametrize("kind", ["replay", "churn"])
def test_digest_repeats_for_a_seed_traced_or_not(kind, tmp_path):
    first, again, traced = tr.PeriodClock(), tr.PeriodClock(), tr.PeriodClock()
    outcome = _tiny(kind, 3, first, tmp_path)
    assert _tiny(kind, 3, again, tmp_path).simulated == outcome.simulated
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced_outcome = _tiny(kind, 3, traced, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert first.digest() == again.digest() == traced.digest()
    assert traced_outcome.simulated == outcome.simulated
    assert all(value > 0 for value in outcome.simulated.values())
    attempted, failed = run.check(outcome)
    assert attempted > 0 and failed == 0
    other = tr.PeriodClock()
    _tiny(kind, 4, other, tmp_path)
    assert other.digest() != first.digest()


def test_check_counts_misplaced_vms(tmp_path):
    outcome = _tiny("replay", 3, tr.PeriodClock(), tmp_path)
    names, placement = outcome.served[0]
    # names[0] is placed but not active; "ghost" is active but not placed.
    population = (*names[1:], "ghost")
    down = frozenset({placement.assignment[names[1]]})
    on_down = sum(1 for vm in names[1:] if placement.assignment[vm] in down)
    broken = wl.Outcome(outcome.fleet, [(population, placement)], {}, [down])
    assert run.check(broken) == (len(population), on_down + 2)
    beyond = sum(1 for vm in names if placement.assignment[vm] >= 1)
    assert run.check(wl.Outcome(1, [(names, placement)], {})) == (len(names), beyond)


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", "replay_exact", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
