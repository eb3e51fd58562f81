"""Tests for repro.traces.io — CSV persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.io import load_trace_set_csv, save_trace_set_csv
from repro.traces.trace import TraceSet


class TestRoundTrip:
    def test_values_period_and_names(self, tmp_path):
        ts = TraceSet.from_mapping({"a": [1.0, 2.5, 3.0], "b": [0.1, 0.2, 0.3]}, 5.0)
        path = tmp_path / "traces.csv"
        save_trace_set_csv(ts, path)
        back = load_trace_set_csv(path)
        assert back.names == ("a", "b")
        assert back.period_s == 5.0
        assert np.allclose(back.matrix, ts.matrix)

    def test_round_trip_large(self, tmp_path, rng):
        ts = TraceSet.from_mapping(
            {f"vm{i}": rng.uniform(0, 4, size=50) for i in range(5)}, 300.0
        )
        path = tmp_path / "traces.csv"
        save_trace_set_csv(ts, path)
        back = load_trace_set_csv(path)
        assert np.allclose(back.matrix, ts.matrix, atol=1e-5)


class TestMalformedInput:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace_set_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,a\n0,1\n1,2\n")
        with pytest.raises(ValueError, match="bad header"):
            load_trace_set_csv(path)

    def test_no_vm_columns(self, tmp_path):
        path = tmp_path / "nocol.csv"
        path.write_text("time_s\n0\n1\n")
        with pytest.raises(ValueError, match="no VM columns"):
            load_trace_set_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("time_s,a\n0,1\n1,2,3\n")
        with pytest.raises(ValueError, match="row width"):
            load_trace_set_csv(path)

    def test_single_sample(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("time_s,a\n0,1\n")
        with pytest.raises(ValueError, match="two samples"):
            load_trace_set_csv(path)

    def test_non_uniform_sampling(self, tmp_path):
        path = tmp_path / "jitter.csv"
        path.write_text("time_s,a\n0,1\n1,2\n3,3\n")
        with pytest.raises(ValueError, match="uniformly"):
            load_trace_set_csv(path)


class TestCliExport:
    def test_export_coarse(self, tmp_path, capsys):
        from repro.cli import main
        from repro.traces.io import load_trace_set_csv

        path = tmp_path / "pop.csv"
        assert main(["export-traces", str(path), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "wrote 40 traces" in out
        traces = load_trace_set_csv(path)
        assert traces.num_traces == 40
        assert traces.period_s == 300.0
