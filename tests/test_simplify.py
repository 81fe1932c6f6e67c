"""Mesh simplification: vertex clustering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.mesh import TriangleMesh
from repro.geometry.primitives import box_mesh, bunny_blob, icosphere
from repro.simplify import clustering
from repro.simplify.clustering import simplify_clustering


@pytest.mark.parametrize("simplify", [simplify_clustering],
                         ids=["clustering"])
class TestSimplifiers:
    def test_respects_target(self, simplify):
        sphere = icosphere(subdivisions=2)          # 320 faces
        out = simplify(sphere, 80)
        assert 0 < out.num_faces <= 80

    def test_noop_when_under_target(self, simplify):
        box = box_mesh((0, 0, 0), (1, 1, 1))
        out = simplify(box, 50)
        assert out is box

    def test_invalid_target(self, simplify):
        with pytest.raises(GeometryError):
            simplify(icosphere(subdivisions=1), 0)

    def test_output_within_inflated_input_bounds(self, simplify):
        sphere = icosphere(subdivisions=2, radius=3.0, center=(5, 5, 5))
        out = simplify(sphere, 40)
        margin = sphere.aabb().diagonal * 0.05 + 1e-9
        assert sphere.aabb().inflated(margin).contains(out.aabb())

    def test_no_degenerate_faces(self, simplify):
        out = simplify(icosphere(subdivisions=2), 60)
        assert np.all(out.face_areas() > 0)

    def test_surface_area_roughly_preserved(self, simplify):
        sphere = icosphere(subdivisions=3)
        out = simplify(sphere, 150)
        assert out.surface_area() == pytest.approx(sphere.surface_area(),
                                                   rel=0.35)

    def test_deterministic(self, simplify):
        blob = bunny_blob(subdivisions=2, seed=3)
        a = simplify(blob, 70)
        b = simplify(blob, 70)
        assert a.num_faces == b.num_faces
        assert np.allclose(a.vertices, b.vertices)


def test_clustering_extreme_target_returns_proxy_not_empty():
    sphere = icosphere(subdivisions=1)
    out = simplify_clustering(sphere, 1)
    assert 1 <= out.num_faces <= 1


@given(sub=st.integers(min_value=1, max_value=2),
       ratio=st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=10, deadline=None)
def test_clustering_target_property(sub, ratio):
    sphere = icosphere(subdivisions=sub)
    target = max(int(sphere.num_faces * ratio), 1)
    out = simplify_clustering(sphere, target)
    assert 1 <= out.num_faces <= target


def _first_occurrences_axis0(sorted_faces, n):
    """The structured-row dedup ``_cluster_once`` used before the scalar
    keys: the reference the keyed version must reproduce."""
    _, first_idx = np.unique(sorted_faces, axis=0, return_index=True)
    return np.sort(first_idx)


def test_cluster_dedup_scalar_keys_match_row_unique(monkeypatch):
    rng = np.random.default_rng(11)
    meshes = [icosphere(subdivisions=2), bunny_blob(subdivisions=2, seed=3),
              # one face; and random soups with duplicate and
              # winding-reversed faces over few vertices
              TriangleMesh(rng.uniform(0, 1, (3, 3)), np.array([[0, 1, 2]]))]
    for num_vertices in (4, 9, 40):
        faces = rng.integers(0, num_vertices, (60, 3))
        faces = faces[(faces[:, 0] != faces[:, 1])
                      & (faces[:, 1] != faces[:, 2])
                      & (faces[:, 0] != faces[:, 2])]
        meshes.append(TriangleMesh(rng.uniform(-5, 5, (num_vertices, 3)),
                                   np.concatenate([faces, faces[:, ::-1]])))
    for mesh in meshes:
        # Resolution 1 collapses every vertex into one cluster (no face
        # survives); the finer grids leave duplicates to remove.
        for resolution in (1, 2, 3, 7, 64):
            keyed = clustering._cluster_once(mesh, mesh.aabb(), resolution)
            with monkeypatch.context() as patch:
                patch.setattr(clustering, "_first_occurrences",
                              _first_occurrences_axis0)
                rows = clustering._cluster_once(mesh, mesh.aabb(),
                                                resolution)
            assert np.array_equal(keyed.vertices, rows.vertices)
            assert np.array_equal(keyed.faces, rows.faces)
            assert keyed.faces.dtype == rows.faces.dtype


def test_cluster_dedup_falls_back_when_keys_would_overflow():
    faces = np.array([[0, 1, 2], [0, 1, 5], [0, 1, 2], [3, 4, 5],
                      [0, 1, 5]])
    expected = _first_occurrences_axis0(faces, None)
    for n in (6, 2 ** 21, 2 ** 21 + 1, 2 ** 40):     # 2**21 cubed = 2**63
        assert np.array_equal(clustering._first_occurrences(faces, n),
                              expected)
