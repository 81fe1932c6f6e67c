"""Visibility substrate: cells, DoV estimator, precompute pipeline."""

import numpy as np
import pytest

from repro.errors import VisibilityError
from repro.geometry.aabb import AABB, pack_aabbs
from repro.geometry.solidangle import FULL_SPHERE, sphere_solid_angle
from repro.visibility.cells import CellGrid
from repro.visibility.dov import (CellVisibility, VisibilityTable,
                                  aggregate_upward)
from repro.visibility.precompute import precompute_visibility
from repro.visibility.raycast import RayCastDoVEstimator


# -- cell grid --------------------------------------------------------------

def test_grid_covering_and_lookup():
    bounds = AABB((0, 0, 0), (100, 50, 30))
    grid = CellGrid.covering(bounds, cell_size=25.0)
    assert grid.cells_x == 4
    assert grid.cells_y == 2
    assert grid.num_cells == 8
    assert grid.cell_of_point((10, 10, 1.7)) == 0
    assert grid.cell_of_point((99, 49, 1.7)) == grid.num_cells - 1


def test_grid_clamps_out_of_range_points():
    grid = CellGrid.covering(AABB((0, 0, 0), (100, 100, 10)), 50.0)
    assert grid.cell_of_point((-5, -5, 0)) == 0
    assert grid.cell_of_point((500, 500, 0)) == grid.num_cells - 1


def test_cell_center_round_trip():
    grid = CellGrid.covering(AABB((0, 0, 0), (100, 100, 10)), 25.0)
    for cid in grid.cell_ids():
        assert grid.cell_of_point(grid.cell_center(cid)) == cid


def test_cell_box_at_eye_height():
    grid = CellGrid(origin=(0, 0), cell_size=10.0, cells_x=2, cells_y=2,
                    eye_height=1.5)
    box = grid.cell_box(0)
    assert box.lo[2] == box.hi[2] == 1.5


def test_sample_viewpoints_inside_cell():
    grid = CellGrid(origin=(0, 0), cell_size=10.0, cells_x=3, cells_y=3)
    points = grid.sample_viewpoints(4, samples=5, seed=1)
    assert len(points) == 5
    box = grid.cell_box(4)
    for p in points:
        assert box.lo[0] <= p[0] <= box.hi[0]
        assert box.lo[1] <= p[1] <= box.hi[1]


def test_neighbors():
    grid = CellGrid(origin=(0, 0), cell_size=10.0, cells_x=3, cells_y=3)
    assert sorted(grid.neighbors(4)) == [1, 3, 5, 7]   # center cell
    assert len(grid.neighbors(0)) == 2                  # corner


def test_grid_validation():
    with pytest.raises(VisibilityError):
        CellGrid(origin=(0, 0), cell_size=0.0, cells_x=1, cells_y=1)
    grid = CellGrid(origin=(0, 0), cell_size=1.0, cells_x=2, cells_y=2)
    with pytest.raises(VisibilityError):
        grid.cell_indices(99)


# -- DoV data model ------------------------------------------------------------

def test_cell_visibility_drops_zeros():
    cell = CellVisibility(0)
    cell.set(1, 0.5)
    cell.set(2, 0.0)
    assert cell.get(1) == 0.5
    assert cell.get(2) == 0.0
    assert cell.visible_ids() == [1]


def test_cell_visibility_rejects_out_of_range():
    cell = CellVisibility(0)
    with pytest.raises(VisibilityError):
        cell.set(1, 1.5)
    with pytest.raises(VisibilityError):
        CellVisibility(0, dov={1: -0.2})


def test_aggregate_upward_clamps():
    assert aggregate_upward([0.2, 0.3]) == pytest.approx(0.5)
    assert aggregate_upward([0.8, 0.9]) == 1.0
    with pytest.raises(VisibilityError):
        aggregate_upward([-0.5])


def test_visibility_table():
    table = VisibilityTable(4)
    table.put(CellVisibility(2, dov={5: 0.5}))
    assert table.cell(2).num_visible == 1
    assert table.cell(0).num_visible == 0       # implicit empty cell
    assert table.average_visible() == pytest.approx(0.25)
    with pytest.raises(VisibilityError):
        table.cell(9)


# -- ray-cast estimator ------------------------------------------------------

def test_single_box_dov_matches_analytic():
    """A lone cube's DoV should approximate its bounding-sphere solid
    angle; for a cube the projection is between the inscribed and
    circumscribed sphere bounds."""
    box = AABB((10, -1, -1), (12, 1, 1))
    est = RayCastDoVEstimator(pack_aabbs([box]), resolution=48)
    dov = est.dov_from_viewpoint((0, 0, 0))[0]
    outer = sphere_solid_angle(11.0, box.diagonal / 2) / FULL_SPHERE
    inner = sphere_solid_angle(11.0, 1.0) / FULL_SPHERE
    assert inner * 0.9 <= dov <= outer * 1.1


def test_occluder_blocks_object():
    occluder = AABB((5, -10, -10), (6, 10, 10))     # big wall
    hidden = AABB((20, -1, -1), (21, 1, 1))
    est = RayCastDoVEstimator(pack_aabbs([occluder, hidden]), resolution=24)
    dov = est.dov_from_viewpoint((0, 0, 0))
    assert 0 in dov
    assert 1 not in dov                              # fully occluded


def test_partial_occlusion_reduces_dov():
    target = AABB((20, -5, -5), (21, 5, 5))
    est_alone = RayCastDoVEstimator(pack_aabbs([target]), resolution=32)
    alone = est_alone.dov_from_viewpoint((0, 0, 0))[0]
    blocker = AABB((10, -1.2, -5), (11, 1.2, 5))    # blocks part of it
    est_both = RayCastDoVEstimator(pack_aabbs([blocker, target]),
                                   resolution=32)
    both = est_both.dov_from_viewpoint((0, 0, 0))
    assert 0 < both[1] < alone


def test_dovs_sum_to_at_most_one():
    rng = np.random.default_rng(2)
    boxes = []
    for _ in range(30):
        lo = rng.uniform(-50, 50, 3)
        boxes.append(AABB(lo, lo + rng.uniform(1, 10, 3)))
    est = RayCastDoVEstimator(pack_aabbs(boxes), resolution=16)
    dov = est.dov_from_viewpoint((0, 0, 0))
    assert 0 < sum(dov.values()) <= 1.0 + 1e-9
    assert all(0 < v <= 1.0 for v in dov.values())


def test_viewpoint_inside_box_sees_only_it():
    container = AABB((-1, -1, -1), (1, 1, 1))
    outside = AABB((5, -1, -1), (6, 1, 1))
    est = RayCastDoVEstimator(pack_aabbs([container, outside]),
                              resolution=16)
    dov = est.dov_from_viewpoint((0, 0, 0))
    assert dov[0] == pytest.approx(1.0)
    assert 1 not in dov


def test_region_dov_is_max_over_samples():
    box = AABB((10, -2, -2), (12, 2, 2))
    est = RayCastDoVEstimator(pack_aabbs([box]), resolution=32)
    near = est.dov_from_viewpoint((5, 0, 0))[0]
    far = est.dov_from_viewpoint((25, 0, 0))[0]
    assert near > far
    region = est.dov_from_region([(5, 0, 0), (25, 0, 0)])[0]
    assert region == pytest.approx(max(near, far))
    with pytest.raises(VisibilityError):
        est.dov_from_region([])


def test_custom_object_ids():
    box = AABB((5, -1, -1), (6, 1, 1))
    est = RayCastDoVEstimator(pack_aabbs([box]), object_ids=[42],
                              resolution=8)
    dov = est.dov_from_viewpoint((0, 0, 0))
    assert set(dov) == {42}


def test_estimator_validation():
    with pytest.raises(VisibilityError):
        RayCastDoVEstimator(np.zeros((2, 5)))
    with pytest.raises(VisibilityError):
        RayCastDoVEstimator(np.zeros((2, 6)), object_ids=[1])


# -- precompute pipeline -----------------------------------------------------

def test_precompute_produces_table(small_scene, small_grid):
    table = precompute_visibility(small_scene, small_grid, resolution=8)
    assert table.num_cells == small_grid.num_cells
    assert any(c.num_visible > 0 for c in table.cells())
    for cell in table.cells():
        for oid, dov in cell.dov.items():
            assert oid in small_scene
            assert 0 < dov <= 1.0


def test_precompute_min_dov_filters(small_scene, small_grid):
    """The floor is the paper's, fixed: a cell keeps every object whose
    region DoV (eq. 2) is > 0, and nothing else."""
    table = precompute_visibility(small_scene, small_grid, resolution=8)
    estimator = RayCastDoVEstimator(small_scene.packed_mbrs(),
                                    object_ids=small_scene.object_ids(),
                                    resolution=8)
    for cid in small_grid.cell_ids():
        region = estimator.dov_from_region(
            small_grid.sample_viewpoints(cid, samples=1))
        assert table.cell(cid).dov == {
            oid: dov for oid, dov in region.items() if dov > 0.0}


def test_precompute_empty_scene_rejected(small_grid):
    from repro.scene.objects import Scene
    with pytest.raises(VisibilityError):
        precompute_visibility(Scene(), small_grid)


def test_precompute_rejects_bad_parameters(small_scene, small_grid):
    # Regression: samples_per_cell < 1 used to be silently accepted and
    # produced empty viewpoint batches deep inside the kernel.
    with pytest.raises(VisibilityError):
        precompute_visibility(small_scene, small_grid, resolution=8,
                              samples_per_cell=0)
    with pytest.raises(VisibilityError):
        precompute_visibility(small_scene, small_grid, resolution=8,
                              workers=0)
