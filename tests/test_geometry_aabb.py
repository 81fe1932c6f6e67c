"""AABB unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.aabb import AABB, pack_aabbs, union_aabbs

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def boxes():
    return st.builds(
        lambda a, b: AABB(np.minimum(a, b), np.maximum(a, b)),
        st.tuples(coords, coords, coords).map(np.array),
        st.tuples(coords, coords, coords).map(np.array))


def test_basic_properties():
    box = AABB((0, 0, 0), (2, 4, 6))
    assert box.volume == pytest.approx(48.0)
    assert np.allclose(box.center, (1, 2, 3))
    assert np.allclose(box.extent, (2, 4, 6))
    assert box.diagonal == pytest.approx(np.sqrt(4 + 16 + 36))


def test_invalid_bounds_rejected():
    with pytest.raises(GeometryError):
        AABB((1, 0, 0), (0, 1, 1))


def test_from_points():
    pts = np.array([(0, 0, 0), (1, 5, -1), (2, 1, 3)])
    box = AABB.from_points(pts)
    assert np.allclose(box.lo, (0, 0, -1))
    assert np.allclose(box.hi, (2, 5, 3))


def test_from_points_empty_rejected():
    with pytest.raises(GeometryError):
        AABB.from_points(np.empty((0, 3)))


def test_from_center_extent():
    box = AABB.from_center_extent((1, 1, 1), (2, 2, 2))
    assert np.allclose(box.lo, (0, 0, 0))
    assert np.allclose(box.hi, (2, 2, 2))


def test_containment_and_intersection():
    outer = AABB((0, 0, 0), (10, 10, 10))
    inner = AABB((2, 2, 2), (3, 3, 3))
    disjoint = AABB((20, 20, 20), (30, 30, 30))
    assert outer.contains(inner)
    assert not inner.contains(outer)
    assert outer.intersects(inner)
    assert not outer.intersects(disjoint)
    assert outer.intersects(AABB((5, 5, 5), (15, 15, 15)))


def test_touching_boxes_intersect():
    a = AABB((0, 0, 0), (1, 1, 1))
    b = AABB((1, 0, 0), (2, 1, 1))
    assert a.intersects(b)


def test_contains_point():
    box = AABB((0, 0, 0), (1, 1, 1))
    assert box.contains_point((0.5, 0.5, 0.5))
    assert box.contains_point((1, 1, 1))           # boundary closed
    assert not box.contains_point((1.01, 0.5, 0.5))


def test_min_distance_to_point():
    box = AABB((0, 0, 0), (1, 1, 1))
    assert box.min_distance_to_point((0.5, 0.5, 0.5)) == 0.0
    assert box.min_distance_to_point((2, 0.5, 0.5)) == pytest.approx(1.0)
    assert box.min_distance_to_point((2, 2, 0.5)) == pytest.approx(np.sqrt(2))


def test_inflated():
    box = AABB((0, 0, 0), (1, 1, 1))
    grown = box.inflated(1.0)
    assert np.allclose(grown.lo, (-1, -1, -1))
    with pytest.raises(GeometryError):
        box.inflated(-1.0)


def test_union_aabbs():
    a = AABB((0, 0, 0), (1, 1, 1))
    b = AABB((5, -1, 0), (6, 0, 2))
    u = union_aabbs([a, b])
    assert u.contains(a) and u.contains(b)
    with pytest.raises(GeometryError):
        union_aabbs([])


def test_pack_aabbs():
    a = AABB((0, 0, 0), (1, 2, 3))
    packed = pack_aabbs([a])
    assert packed.shape == (1, 6)
    assert np.allclose(packed[0], [0, 0, 0, 1, 2, 3])
    assert pack_aabbs([]).shape == (0, 6)


def test_immutability_and_hash():
    box = AABB((0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        box.lo[0] = 5.0
    assert hash(box) == hash(AABB((0, 0, 0), (1, 1, 1)))
    assert box == AABB((0, 0, 0), (1, 1, 1))


@given(boxes(), boxes())
def test_union_contains_both(a, b):
    u = union_aabbs([a, b])
    assert u.contains(a)
    assert u.contains(b)


@given(boxes())
def test_volume_nonnegative(a):
    assert a.volume >= 0.0
