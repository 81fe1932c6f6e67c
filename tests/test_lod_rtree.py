"""LoD-R-tree baseline tests: slab queries, direction-keyed cache, and
the view-change degeneration the HDoV paper describes."""

import numpy as np
import pytest

from repro.baselines.lod_rtree import LodRTreeSystem
from repro.errors import WalkthroughError
from repro.geometry.aabb import union_aabbs

#: Every resident-set operation also checks the running byte total
#: against the recomputed sum (see conftest).
pytestmark = pytest.mark.usefixtures("delta_totals_checked")


def street_point(env):
    cell = max(env.grid.cell_ids(),
               key=lambda c: env.visibility.cell(c).num_visible)
    return env.grid.cell_center(cell)


def test_validation(env):
    with pytest.raises(WalkthroughError):
        LodRTreeSystem(env, depth=0.0)
    with pytest.raises(WalkthroughError):
        LodRTreeSystem(env, num_slabs=0)


def test_query_boxes_cover_frustum_depth(env):
    system = LodRTreeSystem(env, depth=300.0, num_slabs=3)
    point = street_point(env)
    boxes = system.query_boxes(point, (1, 0, 0))
    assert len(boxes) == 3
    cover = union_aabbs(boxes)
    assert cover.contains_point(point)
    assert cover.contains_point(point + np.array([299.0, 0.0, 0.0]))
    # Tighter near the viewer than far away.
    assert boxes[0].volume < boxes[-1].volume


def test_slab_boxes_much_smaller_than_review_box(env):
    """The slab decomposition's selling point: less dead volume than
    one big cube of the same reach."""
    system = LodRTreeSystem(env, depth=400.0, num_slabs=3)
    boxes = system.query_boxes(street_point(env), (1, 0, 0))
    slab_volume = sum(b.volume for b in boxes)
    # REVIEW must cover 400 m of reach in *every* direction: a cube of
    # side 800 m centered at the viewpoint.
    review_volume = 800.0 ** 3
    assert slab_volume < review_volume / 4


def test_query_returns_objects_in_boxes(env):
    system = LodRTreeSystem(env, depth=400.0, fetch_models=False)
    point = street_point(env)
    result = system.query(point, (1, 0, 0))
    boxes = result.boxes
    for oid in result.object_ids:
        mbr = env.objects[oid].chain.finest.aabb()
        assert any(box.intersects(mbr) for box in boxes)


def test_near_objects_finest_lod(env):
    system = LodRTreeSystem(env, depth=400.0, num_slabs=3,
                            fetch_models=False)
    point = street_point(env)
    result = system.query(point, (1, 0, 0))
    if not result.object_ids:
        pytest.skip("no objects in view")
    # Some object in the nearest slab gets fraction 1.0 => finest polys.
    finest_served = any(
        env.objects[oid].chain.finest.num_faces
        in [env.objects[oid].chain.interpolated_polygons(1.0)]
        for oid in result.object_ids)
    assert finest_served


def test_small_turn_keeps_cache(env):
    system = LodRTreeSystem(env, depth=300.0, requery_angle_deg=20.0,
                            fetch_models=False)
    point = street_point(env)
    _result, queried = system.frame(point, (1, 0, 0))
    assert queried
    small_turn = (np.cos(np.radians(5)), np.sin(np.radians(5)), 0)
    _result, queried = system.frame(point, small_turn)
    assert not queried


def test_large_turn_invalidates_cache(env):
    """The degeneration: turning the head re-queries and re-fetches."""
    system = LodRTreeSystem(env, depth=300.0, requery_angle_deg=20.0,
                            fetch_models=False)
    point = street_point(env)
    system.frame(point, (1, 0, 0))
    _result, queried = system.frame(point, (0, 1, 0))     # 90-degree turn
    assert queried
    assert system.queries_issued == 2


def test_turning_costs_more_than_for_review(env):
    """Replaying a turning pattern: the LoD-R-tree re-queries far more
    than REVIEW, whose box ignores the view direction."""
    from repro.baselines.review import ReviewSystem
    point = street_point(env)
    headings = np.linspace(0, 2 * np.pi, 24, endpoint=False)

    lod_rtree = LodRTreeSystem(env, depth=300.0, requery_angle_deg=20.0,
                               fetch_models=False)
    review = ReviewSystem(env, box_size=300.0, fetch_models=False)
    review_queries = 0
    for heading in headings:
        direction = (float(np.cos(heading)), float(np.sin(heading)), 0.0)
        lod_rtree.frame(point, direction)
        _r, queried = review.frame(point)
        review_queries += queried
    assert lod_rtree.queries_issued > review_queries


def test_complement_search_on_straight_motion(env):
    system = LodRTreeSystem(env, depth=300.0, fetch_models=False)
    point = street_point(env)
    _first, queried = system.frame(point, (1, 0, 0))
    assert queried
    # 5 m steps stay under the 25 m re-query distance until the sixth.
    for step in range(1, 6):
        _result, queried = system.frame(
            point + np.array([5.0 * step, 0, 0]), (1, 0, 0))
        assert not queried
    second, queried = system.frame(point + np.array([30.0, 0, 0]), (1, 0, 0))
    assert queried
    # Overlapping slabs: most objects served from cache.
    assert len(second.fetched_ids) < len(second.object_ids) + 1
    assert system.resident.skipped > 0
