"""Ray casting kernels: unit tests and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.aabb import AABB, pack_aabbs
from repro.geometry.rays import (NO_HIT, cube_map_solid_angles, nearest_hits,
                                 ray_aabb_intersect, rays_vs_aabbs,
                                 rays_vs_triangles, sphere_direction_grid)
from repro.geometry.slab import (group_rays_by_octant, slab_entry_matrix,
                                 slab_nearest)


def test_direction_grid_shape_and_unit_length():
    dirs = sphere_direction_grid(8)
    assert dirs.shape == (6 * 64, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_direction_grid_covers_all_octants():
    dirs = sphere_direction_grid(4)
    signs = {tuple(s) for s in np.sign(dirs).astype(int)}
    assert len(signs) == 8


def test_solid_angles_sum_to_full_sphere():
    # Texel-center quadrature converges O(1/resolution^2).
    for resolution, tolerance in ((4, 2e-2), (8, 5e-3), (16, 1.5e-3),
                                  (32, 4e-4)):
        omegas = cube_map_solid_angles(resolution)
        assert omegas.sum() == pytest.approx(4 * np.pi, rel=tolerance)


def test_ray_hits_box_straight_on():
    t = ray_aabb_intersect((0, 0, 0), (1, 0, 0), (5, -1, -1), (6, 1, 1))
    assert t == pytest.approx(5.0)


def test_ray_misses_box():
    assert ray_aabb_intersect((0, 0, 0), (0, 0, 1), (5, -1, -1),
                              (6, 1, 1)) is None


def test_ray_behind_box_misses():
    assert ray_aabb_intersect((10, 0, 0), (1, 0, 0), (5, -1, -1),
                              (6, 1, 1)) is None


def test_ray_origin_inside_box_hits_at_zero():
    t = ray_aabb_intersect((5.5, 0, 0), (1, 0, 0), (5, -1, -1), (6, 1, 1))
    assert t == pytest.approx(0.0)


def test_axis_parallel_ray_inside_slab():
    # Direction has a zero component; origin within that slab.
    t = ray_aabb_intersect((0, 0, 0), (1, 0, 0), (2, -1, -1), (3, 1, 1))
    assert t == pytest.approx(2.0)


def test_axis_parallel_ray_outside_slab_misses():
    t = ray_aabb_intersect((0, 5, 0), (1, 0, 0), (2, -1, -1), (3, 1, 1))
    assert t is None


def test_nearest_hits_prefers_closer_box():
    boxes = pack_aabbs([AABB((5, -1, -1), (6, 1, 1)),
                        AABB((2, -1, -1), (3, 1, 1))])
    ids, ts = nearest_hits((0, 0, 0), np.array([[1.0, 0.0, 0.0]]), boxes)
    assert ids[0] == 1
    assert ts[0] == pytest.approx(2.0)


def test_nearest_hits_miss_is_minus_one():
    boxes = pack_aabbs([AABB((5, -1, -1), (6, 1, 1))])
    ids, ts = nearest_hits((0, 0, 0), np.array([[0.0, 0.0, 1.0]]), boxes)
    assert ids[0] == -1
    assert ts[0] == NO_HIT


def test_nearest_hits_no_boxes():
    ids, ts = nearest_hits((0, 0, 0), np.array([[1.0, 0.0, 0.0]]),
                           np.empty((0, 6)))
    assert ids[0] == -1


def test_rays_vs_triangles_hit_and_miss():
    tri = np.array([[(1, -1, -1), (1, 1, -1), (1, 0, 1)]], dtype=float)
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    t = rays_vs_triangles((0, 0, 0), dirs, tri)
    assert t[0, 0] == pytest.approx(1.0)
    assert t[1, 0] == NO_HIT


def test_rays_vs_triangles_backface_still_hits():
    # Moller-Trumbore without culling hits both orientations.
    tri = np.array([[(1, -1, -1), (1, 0, 1), (1, 1, -1)]], dtype=float)
    t = rays_vs_triangles((0, 0, 0), np.array([[1.0, 0.0, 0.0]]), tri)
    assert t[0, 0] == pytest.approx(1.0)


unit_dirs = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda d: np.linalg.norm(d) > 1e-3).map(
    lambda d: np.asarray(d) / np.linalg.norm(d))


@given(direction=unit_dirs,
       scale=st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_ray_through_box_center_always_hits(direction, scale):
    """A ray aimed at a box's center from outside must hit it."""
    center = direction * (scale + 10.0)
    box = AABB.from_center_extent(center, (scale, scale, scale))
    t = ray_aabb_intersect((0, 0, 0), direction, box.lo, box.hi)
    assert t is not None
    assert 0 < t <= scale + 10.0


@given(direction=unit_dirs)
@settings(max_examples=30, deadline=None)
def test_entry_distance_lower_bounds_center_distance(direction):
    box = AABB.from_center_extent(direction * 20.0, (2, 2, 2))
    t = ray_aabb_intersect((0, 0, 0), direction, box.lo, box.hi)
    assert t is not None
    assert t <= 20.0
    assert t >= 20.0 - box.diagonal


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    boxes = []
    for _ in range(20):
        lo = rng.uniform(-10, 10, 3)
        boxes.append(AABB(lo, lo + rng.uniform(0.5, 5.0, 3)))
    packed = pack_aabbs(boxes)
    dirs = sphere_direction_grid(4)
    origin = np.array([0.0, 0.0, 0.0])
    t = rays_vs_aabbs(origin, dirs, packed)
    for i in range(0, len(dirs), 7):
        for j in range(len(boxes)):
            scalar = ray_aabb_intersect(origin, dirs[i], boxes[j].lo,
                                        boxes[j].hi)
            if scalar is None:
                assert t[i, j] == NO_HIT
            else:
                assert t[i, j] == pytest.approx(scalar, abs=1e-9)


# -- shared slab kernel ------------------------------------------------------

finite_coords = st.floats(min_value=-50.0, max_value=50.0)

box_strategy = st.tuples(
    st.tuples(finite_coords, finite_coords, finite_coords),
    st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0),
              st.floats(0.0, 20.0)),
).map(lambda t: (np.asarray(t[0]), np.asarray(t[0]) + np.asarray(t[1])))

# Raw (possibly axis-parallel, even degenerate-component) directions: the
# slab kernel must agree with the scalar reference for zero components too.
raw_dirs = st.tuples(
    st.sampled_from([-1.0, -0.3, 0.0, 0.3, 1.0]) | st.floats(-1, 1),
    st.sampled_from([-1.0, -0.3, 0.0, 0.3, 1.0]) | st.floats(-1, 1),
    st.sampled_from([-1.0, -0.3, 0.0, 0.3, 1.0]) | st.floats(-1, 1),
).filter(lambda d: np.linalg.norm(d) > 1e-6).map(np.asarray)


@given(boxes=st.lists(box_strategy, min_size=1, max_size=6),
       origin=st.tuples(finite_coords, finite_coords, finite_coords),
       directions=st.lists(raw_dirs, min_size=1, max_size=8))
@settings(max_examples=120, deadline=None)
def test_slab_kernel_matches_scalar_reference(boxes, origin, directions):
    """Property: the shared slab kernel agrees with ray_aabb_intersect
    for every (ray, box) pair, including axis-parallel rays, origins
    inside boxes, and zero-extent boxes."""
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(directions, dtype=float)
    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    t = slab_entry_matrix(origin, dirs, lo, hi)
    assert t.shape == (len(dirs), len(boxes))
    for i in range(len(dirs)):
        for j in range(len(boxes)):
            scalar = ray_aabb_intersect(origin, dirs[i], lo[j], hi[j])
            if scalar is None:
                assert t[i, j] == NO_HIT
            else:
                assert t[i, j] == scalar        # bit-identical, both float64


# Axis-parallel rays only: every component but one is zero, so every
# axis of every group goes through the non-positive / parallel handling.
axis_dirs = st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
                             (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
                             (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
                            ).map(np.asarray)

# Zero-extent axes are drawn on purpose, not left to chance.
flat_box_strategy = st.tuples(
    st.tuples(finite_coords, finite_coords, finite_coords),
    st.tuples(*[st.just(0.0) | st.floats(0.0, 20.0)] * 3),
).map(lambda t: (np.asarray(t[0]), np.asarray(t[0]) + np.asarray(t[1])))


@st.composite
def slab_nearest_cases(draw):
    """(lo, hi, origins, dirs) in float64 or float32 (the estimator's
    dtype), aimed at the boundary of the octant cull."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    boxes = draw(st.lists(box_strategy | flat_box_strategy,
                          min_size=1, max_size=5))
    # Coincident (shrink 0) and nested copies of earlier rows: argmin's
    # lowest-row tie-break must survive the cull's row selection.
    for row in draw(st.lists(st.integers(0, len(boxes) - 1), max_size=3)):
        inset = draw(st.sampled_from([0.0, 0.25])) * (boxes[row][1]
                                                      - boxes[row][0])
        boxes.append((boxes[row][0] + inset, boxes[row][1] - inset))
    lo = np.array([b[0] for b in boxes], dtype=dtype)
    hi = np.array([b[1] for b in boxes], dtype=dtype)
    # Origins: free points, or — per axis — exactly on the lo / hi face
    # of some box (o == lo, o == hi after the cast: the cull predicate's
    # boundary).  Several origins on different boxes make the block
    # bounds a strict superset of each origin's own.
    origins = []
    for _ in range(draw(st.integers(1, 6))):
        point = np.array(draw(st.tuples(finite_coords, finite_coords,
                                        finite_coords)), dtype=dtype)
        row = draw(st.integers(0, len(boxes) - 1))
        for axis in range(3):
            face = draw(st.sampled_from(["free", "free", "lo", "hi"]))
            if face != "free":
                point[axis] = (lo if face == "lo" else hi)[row, axis]
        origins.append(point)
    dirs = draw(st.lists(raw_dirs, min_size=1, max_size=6)
                | st.lists(axis_dirs, min_size=1, max_size=6))
    return lo, hi, np.array(origins), np.asarray(dirs, dtype=dtype)


@given(case=slab_nearest_cases())
@settings(max_examples=300, deadline=None)
def test_slab_nearest_matches_per_origin_matrix(case):
    """Property: the origin-batched, octant-culled nearest-hit kernel
    equals running the full (unculled) entry matrix one origin at a time
    and taking the argmin."""
    lo, hi, origins, dirs = case
    ids, ts = slab_nearest(origins, dirs, lo, hi)
    assert ids.shape == ts.shape == (len(origins), len(dirs))
    assert ts.dtype == dirs.dtype
    for v, origin in enumerate(origins):
        t = slab_entry_matrix(origin, dirs, lo, hi)
        for r in range(len(dirs)):
            hits = t[r]
            if np.all(hits == NO_HIT):
                assert ids[v, r] == -1
                assert ts[v, r] == NO_HIT
            else:
                assert ids[v, r] == int(np.argmin(hits))
                assert ts[v, r] == hits.min()


def test_octant_groups_partition_all_rays():
    dirs = sphere_direction_grid(4).astype(np.float32)
    groups = group_rays_by_octant(dirs)
    seen = np.concatenate([idx for idx, _rows in groups])
    assert sorted(seen.tolist()) == list(range(len(dirs)))
    for idx, rows in groups:
        assert np.array_equal(dirs[idx], rows)
        signs = rows > 0
        assert np.all(signs == signs[0])        # sign-homogeneous group
