"""The docs layer stays healthy: links, CLI snippets, bench freshness.

Runs the same checker the CI docs job uses (``tools/check_docs.py``) so
doc rot fails tier-1 locally, not just in CI, plus negative coverage
proving the checker actually detects each failure class.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docs.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_exist():
    assert (REPO_ROOT / "README.md").is_file()
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "performance.md").is_file()


def test_checker_passes_on_the_repo():
    result = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_package_version_matches_pyproject():
    """``repro.__version__`` and the packaging metadata name one release."""
    import tomllib

    import repro

    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    assert repro.__version__ == pyproject["project"]["version"]


def test_cli_help_smoke():
    """The quickstart's entry point keeps answering --help."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--help"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "repro-experiments" in result.stdout


def test_checker_detects_broken_link(tmp_path, monkeypatch):
    checker = _load_checker()
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](does/not/exist.md)\n")
    monkeypatch.setattr(checker, "DOC_FILES", [bad])
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    errors: list[str] = []
    checker.check_links(errors)
    assert len(errors) == 1 and "broken link" in errors[0]


def test_checker_detects_bad_cli_command(tmp_path, monkeypatch):
    checker = _load_checker()
    bad = tmp_path / "bad.md"
    bad.write_text("```bash\npython -m repro.cli run no-such-experiment\n```\n")
    monkeypatch.setattr(checker, "DOC_FILES", [bad])
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    errors: list[str] = []
    checker.check_cli_commands(errors)
    assert len(errors) == 1 and "rejects documented command" in errors[0]


def test_checker_tolerates_bench_jitter_but_detects_staleness(tmp_path, monkeypatch):
    """Re-running the bench (noisy timings) must not break the docs
    check; a genuinely stale row (pre-optimisation number) must."""
    import json
    import shutil

    checker = _load_checker()
    shutil.copy(REPO_ROOT / "README.md", tmp_path / "README.md")
    bench = json.loads((REPO_ROOT / "BENCH_scaling.json").read_text())
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)

    # 20% wall-clock jitter: fine.
    jittered = json.loads(json.dumps(bench))
    jittered["kernels"]["sizes"]["1000"]["build_ms"] *= 1.2
    (tmp_path / "BENCH_scaling.json").write_text(json.dumps(jittered))
    errors: list[str] = []
    checker.check_bench_table(errors)
    assert errors == []

    # 3x drift (the shape of a stale pre-optimisation number): caught.
    stale = json.loads(json.dumps(bench))
    stale["kernels"]["sizes"]["1000"]["allocate_ms"] *= 3.0
    (tmp_path / "BENCH_scaling.json").write_text(json.dumps(stale))
    errors = []
    checker.check_bench_table(errors)
    assert len(errors) == 1 and "stale" in errors[0]


def test_checker_guards_the_n100k_evidence(tmp_path, monkeypatch):
    """README's "~160 s / 1.1 GB peak RSS" must match allocate_sharded.deep,
    and a regeneration that drops the deep block must not pass silently."""
    import json
    import shutil

    checker = _load_checker()
    shutil.copy(REPO_ROOT / "README.md", tmp_path / "README.md")
    bench = json.loads((REPO_ROOT / "BENCH_scaling.json").read_text())
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)

    def findings(mutate):
        edited = json.loads(json.dumps(bench))
        mutate(edited["allocate_sharded"])
        (tmp_path / "BENCH_scaling.json").write_text(json.dumps(edited))
        errors: list[str] = []
        checker.check_bench_table(errors)
        return errors

    def scale(key, factor):
        return lambda sharded: sharded["deep"].update({key: sharded["deep"][key] * factor})

    assert findings(scale("wall_s", 1.2)) == []
    errors = findings(lambda sharded: sharded.pop("deep"))
    assert len(errors) == 1 and "allocate_sharded.deep is missing" in errors[0]
    errors = findings(scale("wall_s", 3.0))
    assert len(errors) == 1 and "N=100k wall time" in errors[0]
    errors = findings(scale("peak_rss_mb", 0.3))
    assert len(errors) == 1 and "N=100k peak RSS" in errors[0]


def test_checker_accepts_valid_cli_command(tmp_path, monkeypatch):
    checker = _load_checker()
    good = tmp_path / "good.md"
    good.write_text(
        "```bash\nPYTHONPATH=src python -m repro.cli run table2 --fast\n```\n"
        "outside fences python -m repro.cli run bogus is ignored\n"
    )
    monkeypatch.setattr(checker, "DOC_FILES", [good])
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    errors: list[str] = []
    checker.check_cli_commands(errors)
    assert errors == []
