"""The ``repro profile`` runner: report shape, reconciliation, CLI."""

import json

import pytest

from repro.obs.profile import run_profile


@pytest.fixture(scope="module")
def report():
    return run_profile(scale="small", session=1, frames=20, eta=0.001)


def test_reconciles_per_file_counters_with_iostats(report):
    """The acceptance check: registry per-file I/O counters must agree
    *exactly* with the environment's IOStats totals."""
    assert report["io"]["reconciled"] is True
    light = report["io"]["totals"]["light"]
    heavy = report["io"]["totals"]["heavy"]
    per_file = report["io"]["files"]
    light_files = [n for n in per_file if n != "models"]
    assert sum(per_file[n]["reads"] for n in light_files) == light["reads"]
    assert sum(per_file[n]["seeks"] for n in light_files) == light["seeks"]
    assert per_file["models"]["reads"] == heavy["reads"]
    assert per_file["models"]["bytes_read"] == heavy["bytes_read"]


def test_phases_cover_build_and_walkthrough(report):
    phases = report["phases"]
    for name in ("build", "walkthrough", "frame", "search", "flip_to_cell"):
        assert name in phases, f"missing phase {name!r}"
        assert phases[name]["wall_ms"] >= 0.0
    assert phases["frame"]["count"] == 20
    assert phases["search"]["count"] == report["frames"]["queried"]


def test_search_decision_counters(report):
    search = report["search"]
    assert search["queries"] == report["frames"]["queried"]
    assert search["nodes_read"] >= search["queries"]  # >= one root each
    # Every traversal decision is one of prune/terminate/recurse, and a
    # city viewpoint always prunes something.
    assert search["pruned"] > 0
    assert search["recursed"] + search["terminated"] >= 0


def test_report_is_json_serialisable(report):
    text = json.dumps(report)
    assert "reconciled" in text


def test_include_spans_embeds_records():
    report = run_profile(scale="small", session=2, frames=6,
                         include_spans=True)
    names = {s["name"] for s in report["spans"]}
    assert {"build", "walkthrough", "frame"} <= names
    frame_spans = [s for s in report["spans"] if s["name"] == "frame"]
    assert len(frame_spans) == 6
    # Frames that queried carry the light/heavy I/O split.
    queried = [s for s in frame_spans if s["attrs"].get("queried")]
    assert queried
    assert all("light_ios" in s["attrs"] and "heavy_ios" in s["attrs"]
               for s in queried)
