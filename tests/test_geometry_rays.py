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


# Components the kernel turns into an infinite reciprocal: float32 and
# float64 subnormals (``inf * 0`` on a box face is the kernel's NaN).
subnormal_dirs = st.tuples(
    st.sampled_from([1e-40, -1e-40, 5e-324, -5e-324]),
    st.sampled_from([-1.0, -0.3, 0.0, 0.3, 1.0]),
    st.sampled_from([-1.0, -0.3, 1.0]),
).flatmap(st.permutations).map(np.asarray)


@st.composite
def graded_boxes(draw):
    """17-300 boxes at steadily growing distance from the origin region,
    enough that rays cross the distance cull's band edges (16 / 64 / 256
    rows).  City-like (a shared z range, plan-view rings) or scattered
    over a sphere, with walls up to 32 long that a ray can meet far
    from where they are nearest; corners on a 0.25 grid, exact in
    float32, so equal entry distances do occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.sampled_from([17, 40, 70, 300]))
    step = draw(st.sampled_from([0.25, 0.5, 2.0]))
    flat = draw(st.booleans())
    heading = rng.normal(size=(count, 3))
    if flat:
        heading[:, 2] = 0.0
    heading /= np.maximum(np.linalg.norm(heading, axis=1), 1e-9)[:, None]
    centre = np.round(4.0 * step * np.arange(1, count + 1)[:, None]
                      * heading) / 4.0
    half = rng.choice([0.0, 0.25, 0.5, 1.0, 4.0, 16.0], size=(count, 3),
                      p=[0.2, 0.25, 0.25, 0.15, 0.1, 0.05])
    lo, hi = centre - half, centre + half
    if flat:
        lo[:, 2], hi[:, 2] = 0.0, rng.choice([2.0, 10.0, 30.0], size=count)
    return list(zip(lo, hi))


@st.composite
def slab_nearest_cases(draw):
    """(lo, hi, origins, dirs) in float64 or float32 (the estimator's
    dtype), aimed at the boundaries of the octant and distance culls."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    if draw(st.integers(0, 7)) == 0:    # an exact tie across a band edge
        ray, reach = draw(st.sampled_from(TIE_RAYS))
        return tie_across_bands(ray, reach,
                                draw(st.sampled_from(TIE_FILLERS)),
                                np.array(draw(st.sampled_from(TIE_FLIPS))),
                                dtype)
    boxes = draw(st.lists(box_strategy | flat_box_strategy,
                          min_size=1, max_size=5))
    # Coincident (shrink 0) and nested copies of earlier rows: argmin's
    # lowest-row tie-break must survive the cull's row selection.
    for row in draw(st.lists(st.integers(0, len(boxes) - 1), max_size=3)):
        inset = draw(st.sampled_from([0.0, 0.25])) * (boxes[row][1]
                                                      - boxes[row][0])
        boxes.append((boxes[row][0] + inset, boxes[row][1] - inset))
    graded = draw(st.booleans())
    if graded:
        at = draw(st.integers(0, len(boxes)))   # graded rows, any place
        boxes[at:at] = draw(graded_boxes())
    lo = np.array([b[0] for b in boxes], dtype=dtype)
    hi = np.array([b[1] for b in boxes], dtype=dtype)
    # Origins: free points, or — per axis — exactly on the lo / hi face
    # of some box (o == lo, o == hi after the cast: the cull predicate's
    # boundary).  Several origins on different boxes make the block
    # bounds a strict superset of each origin's own; a z below, inside
    # or above every box makes a block straddle the boxes' z range.  A
    # compact block (free points within 1 of the graded boxes' centre)
    # is what lets the distance cull stop rays early.
    z_levels = [lo[:, 2].min() - 1.0, lo[:, 2].min(), hi[:, 2].max(),
                hi[:, 2].max() + 1.0]
    compact = graded and draw(st.booleans())
    faces = ["free"] if compact else ["free", "free", "lo", "hi"]
    origins = []
    for _ in range(draw(st.integers(1, 6))):
        point = np.array(draw(st.tuples(finite_coords, finite_coords,
                                        finite_coords)), dtype=dtype)
        point *= dtype(0.02 if compact else 1.0)
        row = draw(st.integers(0, len(boxes) - 1))
        for axis in range(3):
            face = draw(st.sampled_from(faces))
            if face != "free":
                point[axis] = (lo if face == "lo" else hi)[row, axis]
        if draw(st.booleans()):
            point[2] = draw(st.sampled_from(z_levels))
        origins.append(point)
    dirs = draw(st.lists(raw_dirs | subnormal_dirs, min_size=1, max_size=6)
                | st.lists(axis_dirs, min_size=1, max_size=6))
    # Rays aimed from the first origin at box centres, scaled to a
    # largest component of 1 (norm 1 to sqrt 3): they pass through
    # several boxes, often in different bands.
    for row in draw(st.lists(st.integers(0, len(boxes) - 1),
                             max_size=12 if graded else 4)):
        aim = (lo[row] + hi[row]) / 2.0 - origins[0]
        if np.abs(aim).max() > 0.0:
            dirs.append(aim / np.abs(aim).max())
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


def aimed_graded_scene(rng, dtype):
    """A compact block of up to 8 origins inside 20-300 small boxes at
    graded distances, and 16 rays aimed from the first origin at box
    centres (largest component 1, norm 1 to sqrt 3): most rays hit
    boxes in several bands, from every origin."""
    count = int(rng.choice([20, 70, 300]))
    heading = rng.normal(size=(count, 3))
    flat = bool(rng.integers(2))
    if flat:
        heading[:, 2] = 0.0
    heading /= np.maximum(np.linalg.norm(heading, axis=1), 1e-9)[:, None]
    centre = np.round(4.0 * rng.choice([0.25, 0.5, 1.0])
                      * np.arange(1, count + 1)[:, None] * heading) / 4.0
    half = rng.choice([0.0, 0.25, 0.5, 1.0, 4.0], size=(count, 3),
                      p=[0.2, 0.3, 0.3, 0.15, 0.05])
    lo, hi = centre - half, centre + half
    origins = np.round(rng.uniform(-1.0, 1.0, size=(rng.integers(1, 9), 3))
                       * 4.0) / 4.0
    if flat:
        lo[:, 2], hi[:, 2] = 0.0, rng.choice([2.0, 10.0, 30.0], size=count)
        origins[:, 2] = rng.choice([-1.0, 0.0, 1.5, 30.0, 31.0],
                                   size=len(origins))
    rows = rng.integers(0, count, size=16)
    aim = (lo[rows] + hi[rows]) / 2.0 - origins[0]
    aim = aim[np.abs(aim).max(axis=1) > 0.0]
    dirs = aim / np.abs(aim).max(axis=1)[:, None]
    return (lo.astype(dtype), hi.astype(dtype), origins.astype(dtype),
            dirs.astype(dtype))


def test_slab_nearest_matches_matrix_on_aimed_graded_scenes():
    """A seeded scan beside the property: 400 scenes where the distance
    cull does most of the work.  A bound not divided by ``||d||`` fails
    about one scene in 25 here, a reach taken at the wrong origin
    extreme one in 6."""
    rng = np.random.default_rng(36)
    for scene in range(400):
        dtype = (np.float32, np.float64)[scene % 2]
        lo, hi, origins, dirs = aimed_graded_scene(rng, dtype)
        ids, ts = slab_nearest(origins, dirs, lo, hi)
        for v, origin in enumerate(origins):
            t = slab_entry_matrix(origin, dirs, lo, hi)
            best = t.min(axis=1)
            assert np.array_equal(ids[v], np.where(best < NO_HIT,
                                                   t.argmin(axis=1), -1))
            assert np.array_equal(ts[v], best)


def tie_across_bands(ray, reach, fillers, flip, dtype):
    """Two boxes the ray from the origin enters at exactly the same
    ``t``, in different distance bands.  The far one is row 0: its
    nearest corner ``p = reach * ray`` lies on the ray, so its ``D /
    ||d||`` is the tie's ``t`` itself.  The near one is the last row: a
    slab whose x face the ray crosses at ``p``.  ``fillers`` boxes lie
    between them in distance, ahead of the ray but off its path, so
    more than 15 put the two a band edge apart.  ``flip`` mirrors axes
    (another octant)."""
    ray = np.asarray(ray, dtype=dtype)
    p = (ray * dtype(reach)).astype(np.float64)
    near, far = p[0], np.linalg.norm(p)
    boxes = [(p, p + 1.0)]                                      # row 0
    for i in range(fillers):
        y = near + (far - near) * (i + 1) / (fillers + 2)
        boxes.append(((0.5, y, -50.0), (1.0, y + 0.25, 50.0)))
    boxes.append(((p[0], -50.0, -50.0),
                  (p[0] + 20.0, p[1] + 0.5, p[2] + 0.5)))       # last
    lo = np.array([b[0] for b in boxes]) * flip
    hi = np.array([b[1] for b in boxes]) * flip
    return (np.minimum(lo, hi).astype(dtype), np.maximum(lo, hi).astype(dtype),
            np.zeros((1, 3), dtype=dtype), (ray * flip).astype(dtype)[None])


TIE_RAYS = [((1.0, 1.0, 0.0), 10.0),
            ((0.75, 0.75, 0.25), 8.0),
            # float32's 1 / 0.7 etc. round so that the kernel's t (10) is
            # below the exact ||p|| / ||d||: without the cull's margin the
            # far box is skipped.
            ((0.7, 0.2, 0.9), 10.0)]
TIE_FILLERS = [15, 20, 70]
TIE_FLIPS = [(1, 1, 1), (-1, 1, 1), (-1, -1, -1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("flip", TIE_FLIPS)
@pytest.mark.parametrize("fillers", TIE_FILLERS)
@pytest.mark.parametrize("ray, reach", TIE_RAYS)
def test_slab_nearest_tie_across_bands_keeps_lowest_row(ray, reach, fillers,
                                                        flip, dtype):
    """The lower row wins an equal entry ``t`` even when it lies in a
    later distance band than the first box found at that ``t``."""
    lo, hi, origins, dirs = tie_across_bands(ray, reach, fillers,
                                             np.array(flip), dtype)
    ids, ts = slab_nearest(origins, dirs, lo, hi)
    t = slab_entry_matrix(origins[0], dirs, lo, hi)[0]
    assert t[0] == t[-1] < NO_HIT                       # the tie is exact
    assert np.all(t[1:-1] == NO_HIT)
    assert (ids[0, 0], ts[0, 0]) == (0, t[0])


def test_octant_groups_partition_all_rays():
    dirs = sphere_direction_grid(4).astype(np.float32)
    groups = group_rays_by_octant(dirs)
    seen = np.concatenate([idx for idx, _rows in groups])
    assert sorted(seen.tolist()) == list(range(len(dirs)))
    for idx, rows in groups:
        assert np.array_equal(dirs[idx], rows)
        signs = rows > 0
        assert np.all(signs == signs[0])        # sign-homogeneous group
