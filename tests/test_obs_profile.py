"""The ``repro profile`` runner: report shape, reconciliation, CLI."""

import json

import pytest

from repro.obs.profile import run_profile
from repro.obs.replay import build_world, load_scale, replay, session_path
from repro.obs.trace import TraceRecorder, use_tracer


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


def test_queried_frame_spans_carry_the_io_split():
    """The report summarises spans by name; a frame's light/heavy I/O
    split is read from the recorder's ``frame`` records."""
    experiment = load_scale("small")
    env = build_world(experiment)
    tracer = TraceRecorder()
    with use_tracer(tracer):
        replay(experiment, env, session_path(experiment, env, 2, 6),
               eta=0.001)
    frames = tracer.by_name("frame")
    assert len(frames) == 6
    queried = [r for r in frames if r.attrs["queried"]]
    assert queried
    assert all("light_ios" in r.attrs and "heavy_ios" in r.attrs
               for r in queried)
