"""TriangleMesh unit tests."""

import numpy as np
import pytest

from repro.constants import BYTES_PER_POLYGON
from repro.errors import GeometryError
from repro.geometry.mesh import TriangleMesh
from repro.geometry.primitives import box_mesh, icosphere


def unit_triangle():
    return TriangleMesh(np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)]),
                        np.array([[0, 1, 2]]))


def test_counts_and_bytes():
    mesh = unit_triangle()
    assert mesh.num_vertices == 3
    assert mesh.num_faces == 1
    assert mesh.num_polygons == 1
    assert mesh.byte_size == BYTES_PER_POLYGON


def test_bad_shapes_rejected():
    with pytest.raises(GeometryError):
        TriangleMesh(np.zeros((3, 2)), np.array([[0, 1, 2]]))
    with pytest.raises(GeometryError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))  # index OOR
    with pytest.raises(GeometryError):
        TriangleMesh(np.array([[np.nan, 0, 0]]), np.empty((0, 3), np.int64))


def test_empty_mesh():
    mesh = TriangleMesh.empty()
    assert mesh.num_faces == 0
    with pytest.raises(GeometryError):
        mesh.aabb()


def test_face_areas_and_surface():
    mesh = unit_triangle()
    assert mesh.face_areas()[0] == pytest.approx(0.5)
    assert mesh.surface_area() == pytest.approx(0.5)


def test_box_mesh_closed_surface():
    box = box_mesh((0, 0, 0), (2, 2, 2))
    assert box.num_faces == 12
    assert box.surface_area() == pytest.approx(6 * 4.0)
    assert np.allclose(box.aabb().lo, (-1, -1, -1))
    assert np.allclose(box.aabb().hi, (1, 1, 1))


def test_merge_rebases_indices():
    a = box_mesh((0, 0, 0), (1, 1, 1))
    b = box_mesh((5, 0, 0), (1, 1, 1))
    merged = TriangleMesh.merge([a, b])
    assert merged.num_faces == 24
    assert merged.num_vertices == 16
    assert merged.aabb().contains(a.aabb())
    assert merged.aabb().contains(b.aabb())


def test_merge_empty_list():
    assert TriangleMesh.merge([]).num_faces == 0


def test_icosphere_face_count_and_radius():
    for sub in (0, 1, 2):
        sphere = icosphere(radius=2.0, subdivisions=sub)
        assert sphere.num_faces == 20 * 4 ** sub
        radii = np.linalg.norm(sphere.vertices, axis=1)
        assert np.allclose(radii, 2.0)


def test_icosphere_area_approaches_sphere():
    sphere = icosphere(radius=1.0, subdivisions=3)
    assert sphere.surface_area() == pytest.approx(4 * np.pi, rel=0.02)
