"""Walkthrough layer: sessions, frame model, metrics, replay drivers."""

import dataclasses

import numpy as np
import pytest

from repro.errors import WalkthroughError
from repro.visibility.dov import VisibilityTable
from repro.walkthrough.frame import FrameModel
from repro.walkthrough.memory import memory_report
from repro.walkthrough.metrics import FidelityMetric, frame_time_stats
from repro.walkthrough.session import (Session, make_session, street_lines,
                                       street_viewpoints)
from repro.walkthrough.visual import ReviewWalkthrough, VisualSystem


# -- sessions -------------------------------------------------------------

def test_make_session_builds_all_three(small_scene):
    bounds = small_scene.bounds()
    for number in (1, 2, 3):
        session = make_session(number, bounds, num_frames=25)
        assert session.num_frames == 25
        for wp in session:
            assert bounds.inflated(1.0).contains_point(wp.position)
            assert np.isclose(np.linalg.norm(wp.direction_array()), 1.0)


def test_make_session_unknown_number(small_scene):
    with pytest.raises(WalkthroughError):
        make_session(5, small_scene.bounds())


def test_sessions_differ(small_scene):
    bounds = small_scene.bounds()
    s1 = make_session(1, bounds, num_frames=30)
    s3 = make_session(3, bounds, num_frames=30)
    p1 = [wp.position for wp in s1]
    p3 = [wp.position for wp in s3]
    assert p1 != p3


def test_session_3_revisits_positions(small_scene):
    """Back-and-forward motion passes through the same area repeatedly."""
    session = make_session(3, small_scene.bounds(), num_frames=80)
    xs = [wp.position[0] for wp in session]
    increasing = sum(1 for a, b in zip(xs, xs[1:]) if b > a)
    decreasing = sum(1 for a, b in zip(xs, xs[1:]) if b < a)
    assert increasing > 10 and decreasing > 10


def test_empty_session_rejected():
    with pytest.raises(WalkthroughError):
        Session("empty", tuple())


def test_street_lines():
    from repro.geometry.aabb import AABB
    bounds = AABB((0, 0, 0), (500, 500, 100))
    lines = street_lines(bounds, pitch=120.0, axis=0)
    assert lines == [120.0, 240.0, 360.0, 480.0]
    assert street_lines(bounds, pitch=None) == [250.0]


def test_street_viewpoints_on_street_lines(small_scene):
    bounds = small_scene.bounds()
    points = street_viewpoints(bounds, 120.0, 30, seed=2)
    assert len(points) == 30
    xs = street_lines(bounds, 120.0, axis=0)
    ys = street_lines(bounds, 120.0, axis=1)
    for p in points:
        on_x_street = any(abs(p[0] - line) < 1e-9 for line in xs)
        on_y_street = any(abs(p[1] - line) < 1e-9 for line in ys)
        assert on_x_street or on_y_street


def test_street_viewpoints_deterministic(small_scene):
    bounds = small_scene.bounds()
    a = street_viewpoints(bounds, 120.0, 10, seed=5)
    b = street_viewpoints(bounds, 120.0, 10, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


# -- frame model -------------------------------------------------------------

def test_frame_model_costs():
    model = FrameModel(polys_per_ms=1000.0, overhead_ms=2.0)
    assert model.render_ms(0) == 2.0
    assert model.render_ms(3000) == pytest.approx(5.0)
    assert model.frame_ms(10.0, 1000) == pytest.approx(13.0)
    with pytest.raises(ValueError):
        model.render_ms(-1)
    with pytest.raises(ValueError):
        model.frame_ms(-1.0, 0)


def test_frame_time_stats():
    stats = frame_time_stats([10.0, 20.0, 30.0])
    assert stats.mean_ms == pytest.approx(20.0)
    assert stats.variance == pytest.approx(200.0 / 3)
    assert stats.maximum_ms == 30.0
    with pytest.raises(WalkthroughError):
        frame_time_stats([])


# -- fidelity metric ----------------------------------------------------------

def test_fidelity_full_detail_is_one(env):
    from repro.core.search import HDoVSearch
    metric = FidelityMetric(env)
    search = HDoVSearch(env, "indexed-vertical")
    cell = max(env.grid.cell_ids(),
               key=lambda c: env.visibility.cell(c).num_visible)
    result = search.query_cell(cell, eta=0.0)
    assert metric.score_hdov(result) == pytest.approx(1.0)


def test_fidelity_penalises_missing_objects(env):
    metric = FidelityMetric(env)
    cell = max(env.grid.cell_ids(),
               key=lambda c: env.visibility.cell(c).num_visible)
    truth = metric.ground_truth(cell)
    assert truth
    # Render only half the visible objects at full detail.
    subset = dict(list(truth.items())[:len(truth) // 2])
    rendered = {oid: env.objects[oid].chain.finest.num_faces
                for oid in subset}
    score = metric.score_rendered(cell, rendered)
    assert score < 1.0
    missed = metric.missed_objects(cell, rendered)
    assert sorted(missed) == sorted(set(truth) - set(subset))


def test_fidelity_empty_cell_is_one(env):
    """Every cell of the city sees something, so the view scored here
    has one cell's visible set removed from its table: whatever is
    rendered there, or nothing, is full fidelity."""
    busiest = max(env.grid.cell_ids(),
                  key=lambda c: env.visibility.cell(c).num_visible)
    table = VisibilityTable(env.visibility.num_cells)
    for cell in env.visibility.cells():
        if cell.cell_id != busiest:
            table.put(cell)
    view = dataclasses.replace(env, visibility=table, fidelity_truth={})
    metric = FidelityMetric(view)
    assert not metric.ground_truth(busiest)
    rendered = {oid: env.objects[oid].chain.finest.num_faces
                for oid in env.visibility.cell(busiest).dov}
    assert metric.score_rendered(busiest, {}) == 1.0
    assert metric.score_rendered(busiest, rendered) == 1.0
    unchanged = dataclasses.replace(env, fidelity_truth={})
    assert FidelityMetric(unchanged).score_rendered(busiest, {}) == 0.0


def test_fidelity_internal_lod_below_full(env):
    from repro.core.search import HDoVSearch
    metric = FidelityMetric(env)
    search = HDoVSearch(env, "indexed-vertical")
    for cell in env.grid.cell_ids():
        result = search.query_cell(cell, eta=0.05)
        if result.internals:
            score = metric.score_hdov(result)
            assert 0.0 < score <= 1.0
            return
    pytest.skip("no internal terminations at this scale")


# -- replay drivers --------------------------------------------------------

@pytest.fixture(scope="module")
def session1(small_env):
    return make_session(1, small_env.scene.bounds(), num_frames=30)


def test_visual_replay_produces_frames(env, session1):
    system = VisualSystem(env, eta=0.001)
    report = system.run(session1)
    assert len(report.frames) == session1.num_frames
    assert all(f.frame_ms > 0 for f in report.frames)
    assert report.avg_fidelity() == pytest.approx(1.0, abs=0.05)


def test_visual_same_cell_frames_are_io_free(env, session1):
    system = VisualSystem(env, eta=0.001)
    report = system.run(session1)
    cells = [f.cell_id for f in report.frames]
    repeats = [f for prev, f in zip(report.frames, report.frames[1:])
               if prev.cell_id == f.cell_id]
    if not repeats:
        pytest.skip("every frame crossed a cell")
    assert all(f.total_ios == 0 for f in repeats)


def test_review_replay_produces_frames(env, session1):
    system = ReviewWalkthrough(env, box_size=300.0)
    report = system.run(session1)
    assert len(report.frames) == session1.num_frames
    queried = [f for f in report.frames if f.total_ios > 0]
    assert queried                      # at least the first frame
    assert len(queried) < len(report.frames)   # hysteresis skips most


def test_memory_report(env, session1):
    system = VisualSystem(env, eta=0.001, evaluate_fidelity=False)
    report = system.run(session1)
    mem = memory_report("VISUAL", report.frames)
    assert mem.peak_bytes == report.peak_resident_bytes()
    assert 0 < mem.mean_bytes <= mem.peak_bytes
    with pytest.raises(WalkthroughError):
        memory_report("X", [])


def test_visual_rejects_negative_eta(env):
    with pytest.raises(WalkthroughError):
        VisualSystem(env, eta=-1.0)
