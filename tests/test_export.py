"""CSV export tests."""

import csv

import pytest

from repro.errors import ExperimentError
from repro.experiments.export import (export_figure7, export_figure8,
                                      export_figure9, export_frame_trace,
                                      export_table3, write_csv)
from repro.experiments.figure7_search_time import Figure7Result
from repro.experiments.figure8_io import Figure8Result
from repro.experiments.figure9_scalability import Figure9Result
from repro.experiments.table3_frametime import Table3Result, Table3Row


def read_back(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_write_csv_roundtrip(tmp_path):
    path = str(tmp_path / "data.csv")
    count = write_csv(path, ["a", "b"], [[1, 2.5], ["x", "y"]])
    assert count == 2
    rows = read_back(path)
    assert rows[0] == ["a", "b"]
    assert rows[1] == ["1", "2.5"]


def test_write_csv_missing_directory(tmp_path):
    with pytest.raises(ExperimentError):
        write_csv(str(tmp_path / "nope" / "data.csv"), ["a"], [])


def test_export_figure7(tmp_path):
    result = Figure7Result(
        etas=[0.0, 0.001],
        search_ms={"horizontal": [10.0, 9.0], "vertical": [5.0, 4.0],
                   "indexed-vertical": [5.0, 4.0]},
        naive_ms=6.0, num_queries=3)
    path = str(tmp_path / "fig7.csv")
    assert export_figure7(result, path) == 2
    rows = read_back(path)
    assert rows[0][0] == "eta"
    assert "naive" in rows[0]
    assert rows[1][0] == "0.0"


def test_export_figure8(tmp_path):
    result = Figure8Result(etas=[0.0], total_ios=[10.0], light_ios=[4.0],
                           heavy_ios=[6.0], naive_total=8.0,
                           naive_light=2.0, num_queries=1)
    path = str(tmp_path / "fig8.csv")
    assert export_figure8(result, path) == 1
    rows = read_back(path)
    assert rows[1] == ["0.0", "10.0", "4.0", "6.0", "8.0", "2.0"]


def test_export_figure9(tmp_path):
    result = Figure9Result(names=["a"], nominal_mb=[400],
                           num_objects=[10], num_nodes=[3],
                           search_ms=[1.5], ios=[2.0], eta=0.001,
                           num_queries=5)
    path = str(tmp_path / "fig9.csv")
    assert export_figure9(result, path) == 1
    assert read_back(path)[1][0] == "400"


def test_export_table3(tmp_path):
    result = Table3Result(rows=[
        Table3Row("0", 10.0, 2.0, 1.0),
        Table3Row("REVIEW(400m)", 50.0, 9.0, 0.9),
    ], num_frames=100)
    path = str(tmp_path / "table3.csv")
    assert export_table3(result, path) == 2
    rows = read_back(path)
    assert rows[2][0] == "REVIEW(400m)"


def test_export_frame_trace(env, tmp_path):
    from repro.walkthrough.session import make_session
    from repro.walkthrough.visual import VisualSystem
    session = make_session(1, env.scene.bounds(), num_frames=10)
    report = VisualSystem(env, eta=0.001,
                          evaluate_fidelity=False).run(session)
    path = str(tmp_path / "trace.csv")
    assert export_frame_trace(report, path) == 10
    rows = read_back(path)
    assert rows[0][0] == "frame"
    assert len(rows) == 11
