"""The fidelity ground truth is derived once per cell per environment.

``FidelityMetric`` keeps each cell's visible ``(object, DoV)`` pairs,
their eq.-6 requirements and the summed DoV in the environment's
``fidelity_truth`` table.  These tests hold the scores to a reference
scorer that re-derives everything per call (the formula the table
replaced) with ``==``, bound the requirement calls of a served round to
one per (cell, visible object), and check that views share the table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict

import pytest

from repro.baselines.review import ReviewSystem
from repro.core.delta import DeltaSearch
from repro.core.search import HDoVSearch, SearchResult
from repro.experiments.config import get_scale
from repro.lod.selection import leaf_lod_fraction
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.replay import build_world, session_path
from repro.serving import ServingSession, SessionScheduler
from repro.serving.service import session_env
from repro.storage.buffer import BufferPool
from repro.walkthrough.metrics import FidelityMetric
from repro.walkthrough.session import make_session

SCHEMES = ("horizontal", "vertical", "indexed-vertical")
ETAS = (0.0, 0.001, 0.008)


# -- the reference: every requirement derived per call -----------------------

def _required(env, oid: int, dov: float) -> int:
    chain = env.objects[oid].chain
    return max(chain.interpolated_polygons(leaf_lod_fraction(dov)), 1)


def _weighted(truth: Dict[int, float], detail: Dict[int, float]) -> float:
    total = sum(truth.values())
    if total == 0.0:
        return 1.0
    achieved = sum(dov * min(max(detail.get(oid, 0.0), 0.0), 1.0)
                   for oid, dov in truth.items())
    return achieved / total


def reference_score_hdov(env, result: SearchResult) -> float:
    truth = dict(env.visibility.cell(result.cell_id).dov)
    if not truth:
        return 1.0
    rendered = {o.object_id: o.polygons for o in result.objects}
    detail: Dict[int, float] = {}
    for oid, polygons in rendered.items():
        detail[oid] = min(polygons / _required(env, oid, truth.get(oid, 0.0)),
                          1.0)
    for internal in result.internals:
        covered = [oid for oid in internal.covered_objects if oid in truth]
        required = sum(_required(env, oid, truth[oid]) for oid in covered)
        frac = min(internal.polygons / required, 1.0) if required else 1.0
        for oid in covered:
            detail[oid] = max(detail.get(oid, 0.0), frac)
    return _weighted(truth, detail)


def reference_score_rendered(env, cell_id: int,
                             rendered: Dict[int, int]) -> float:
    truth = dict(env.visibility.cell(cell_id).dov)
    if not truth:
        return 1.0
    detail = {oid: min(polys / _required(env, oid, truth[oid]), 1.0)
              for oid, polys in rendered.items() if oid in truth}
    return _weighted(truth, detail)


# -- reference equality ------------------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES)
def test_scores_equal_the_per_call_reference(env, scheme):
    """Every cell x eta, full and degraded answers: the same float."""
    metric = FidelityMetric(env)
    delta = DeltaSearch(HDoVSearch(env, scheme, fetch_models=False))
    internals = 0
    for eta in ETAS:
        for cell in env.grid.cell_ids():
            for result in (delta.query_cell(cell, eta),
                           delta.query_cell_degraded(cell, eta)):
                internals += len(result.internals)
                assert metric.score_hdov(result) \
                    == reference_score_hdov(env, result)
    assert internals > 0
    assert len(env.fidelity_truth) <= env.grid.num_cells


def test_an_object_outside_the_truth_is_priced_at_dov_zero(env):
    metric = FidelityMetric(env)
    search = HDoVSearch(env, "indexed-vertical", fetch_models=False)
    cell = next(c for c in env.grid.cell_ids()
                if env.visibility.cell(c).num_visible)
    result = search.query_cell(cell, eta=0.0)
    hidden = next(oid for oid in env.objects
                  if oid not in env.visibility.cell(cell).dov)
    extra = result.objects[0]._replace(object_id=hidden)
    result = replace(result, objects=result.objects + [extra])
    assert metric.score_hdov(result) == reference_score_hdov(env, result)


@pytest.mark.parametrize("pattern", (1, 2, 3))
def test_review_answer_sets_score_as_the_reference(env, pattern):
    """``score_rendered`` over what REVIEW renders, frame by frame."""
    metric = FidelityMetric(env)
    review = ReviewSystem(env, box_size=400.0)
    path = make_session(pattern, env.scene.bounds(), num_frames=30)
    scored = 0
    for waypoint in path:
        position = waypoint.position_array()
        result, _ = review.frame(position, waypoint.direction_array())
        rendered = {}
        for oid in result.object_ids:
            chain = env.objects[oid].chain
            distance = chain.finest.aabb().min_distance_to_point(position)
            rendered[oid] = chain.interpolated_polygons(
                review.lod_fraction_at(distance))
        cell = env.grid.cell_of_point(position)
        assert metric.score_rendered(cell, rendered) \
            == reference_score_rendered(env, cell, rendered)
        scored += bool(rendered)
    assert scored


def test_ground_truth_is_still_a_copy(env):
    metric = FidelityMetric(env)
    cell = max(env.grid.cell_ids(),
               key=lambda c: env.visibility.cell(c).num_visible)
    truth = metric.ground_truth(cell)
    truth.clear()
    assert metric.ground_truth(cell) == env.visibility.cell(cell).dov


# -- the count guard ---------------------------------------------------------

def test_required_polygons_once_per_visible_pair(monkeypatch):
    """One pooled served round of 4 sessions: the eq.-6 requirement is
    worked out at most once per distinct (cell, visible object), across
    every session and every query of a cell."""
    experiment = get_scale("small")
    calls: Counter = Counter()
    scored = []
    score_hdov = FidelityMetric.score_hdov
    required_polygons = FidelityMetric.required_polygons

    def spy_score(metric, result):
        scored.append(result.cell_id)
        return score_hdov(metric, result)

    def spy_required(metric, object_id, dov):
        calls[scored[-1], object_id] += 1
        return required_polygons(metric, object_id, dov)

    with use_registry(MetricsRegistry()):
        env = build_world(experiment)
        pool = BufferPool(256, name="truth-once")
        sessions = [
            ServingSession(i, session_path(experiment, env, 1 + i % 3, 24),
                           session_env(env, pool), eta=0.001, pool=pool)
            for i in range(4)]
        monkeypatch.setattr(FidelityMetric, "score_hdov", spy_score)
        monkeypatch.setattr(FidelityMetric, "required_polygons",
                            spy_required)
        SessionScheduler(sessions).run()
    cells = set(scored)
    assert len(scored) == sum(s.queries for s in sessions) > len(cells) > 1
    assert max(calls.values()) == 1
    assert set(calls) == {(cell, oid) for cell in cells
                          for oid in env.visibility.cell(cell).dov}
    assert set(env.fidelity_truth) == cells


# -- sharing -----------------------------------------------------------------

def test_views_share_one_table_and_reset_keeps_it():
    with use_registry(MetricsRegistry()):
        env = build_world(get_scale("small"))
    pool = BufferPool(16)
    pooled, unpooled = session_env(env, pool), session_env(env, None)
    assert pooled.fidelity_truth is unpooled.fidelity_truth \
        is env.fidelity_truth
    search = HDoVSearch(pooled, fetch_models=False)
    cell = max(env.grid.cell_ids(),
               key=lambda c: env.visibility.cell(c).num_visible)
    score = FidelityMetric(pooled).score_hdov(search.query_cell(cell, 0.001))
    entry = env.fidelity_truth[cell]
    env.reset_runtime_state()
    assert env.fidelity_truth[cell] is entry
    assert FidelityMetric(unpooled).score_hdov(
        HDoVSearch(unpooled, fetch_models=False).query_cell(cell, 0.001)) \
        == score
