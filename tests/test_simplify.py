"""Mesh simplification: vertex clustering."""

import math
from unittest import mock

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


# -- the search before it counted candidates: the oracle -------------------

def reference_simplify_clustering(mesh, target_faces, max_iterations=8):
    """``simplify_clustering`` as it was when every candidate resolution
    built its mesh: the reference the counting search must reproduce."""
    if mesh.num_faces <= target_faces:
        return mesh

    box = mesh.aabb()
    ratio = target_faces / mesh.num_faces
    resolution = max(int(math.sqrt(ratio) * math.sqrt(mesh.num_faces)), 1)

    best = None
    for _ in range(max_iterations):
        candidate = reference_cluster_once(mesh, box, resolution)
        if candidate.num_faces <= target_faces and candidate.num_faces > 0:
            best = candidate
            break
        resolution = max(resolution // 2, 1)
        best = candidate
        if resolution == 1:
            best = reference_cluster_once(mesh, box, 1)
            break
    assert best is not None
    if best.num_faces > target_faces or best.num_faces == 0:
        return clustering._triangle_proxy(mesh)
    return best


def reference_cluster_once(mesh, box, resolution):
    extent = np.maximum(box.extent, 1e-12)
    cell = extent / resolution
    idx = np.floor((mesh.vertices - box.lo) / cell).astype(np.int64)
    idx = np.clip(idx, 0, resolution - 1)
    keys = idx[:, 0] * resolution * resolution + idx[:, 1] * resolution + idx[:, 2]
    unique_keys, inverse = np.unique(keys, return_inverse=True)

    sums = np.zeros((len(unique_keys), 3))
    counts = np.zeros(len(unique_keys))
    np.add.at(sums, inverse, mesh.vertices)
    np.add.at(counts, inverse, 1.0)
    new_verts = sums / counts[:, None]

    new_faces = inverse[mesh.faces]
    keep = ((new_faces[:, 0] != new_faces[:, 1])
            & (new_faces[:, 1] != new_faces[:, 2])
            & (new_faces[:, 0] != new_faces[:, 2]))
    new_faces = new_faces[keep]
    if len(new_faces):
        new_faces = new_faces[_first_occurrences_axis0(
            np.sort(new_faces, axis=1))]
    return reference_compacted(TriangleMesh(new_verts, new_faces))


def reference_compacted(mesh):
    """``TriangleMesh.compacted``: drop unreferenced vertices."""
    if mesh.num_faces == 0:
        return TriangleMesh.empty()
    used, inverse = np.unique(mesh.faces.ravel(), return_inverse=True)
    return TriangleMesh(mesh.vertices[used], inverse.reshape(-1, 3))


def _first_occurrences_axis0(sorted_faces):
    """The structured-row dedup used before the scalar keys."""
    _, first_idx = np.unique(sorted_faces, axis=0, return_index=True)
    return np.sort(first_idx)


def assert_same_mesh(got, want):
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces.tobytes() == want.faces.tobytes()
    assert got.vertices.shape == want.vertices.shape
    assert got.faces.shape == want.faces.shape
    assert got.faces.dtype == want.faces.dtype


def soup(rng, num_vertices, num_faces, *, flat=False):
    """Random faces over few vertices, each also with its winding
    reversed, some repeated and some degenerate."""
    vertices = rng.uniform(-5, 5, (num_vertices, 3))
    if flat:
        vertices[:, 2] = 1.5                # a zero extent: 1e-12 cell
    faces = rng.integers(0, num_vertices, (num_faces, 3))
    faces = np.concatenate([faces, faces[:, ::-1], faces[: num_faces // 3]])
    return TriangleMesh(vertices, faces)


@st.composite
def meshes(draw):
    kind = draw(st.sampled_from(["sphere", "blob", "soup", "flat", "box"]))
    if kind == "sphere":
        return icosphere(radius=draw(st.floats(0.1, 50.0)),
                         subdivisions=draw(st.integers(0, 3)),
                         center=(draw(st.floats(-100, 100)), 0.0, 7.0))
    if kind == "blob":
        return bunny_blob(subdivisions=draw(st.integers(1, 3)),
                          seed=draw(st.integers(0, 50)))
    if kind == "box":
        return box_mesh((0.0, 1.0, 2.0), (draw(st.floats(0.5, 9.0)), 1.0,
                                          draw(st.floats(0.5, 9.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return soup(rng, draw(st.integers(3, 60)), draw(st.integers(1, 200)),
                flat=kind == "flat")


@pytest.mark.parametrize("dense_per_vertex", [0, 10 ** 9],
                         ids=["unique-ranks", "dense-ranks"])
@given(mesh=meshes(), fraction=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_search_equals_the_building_search(dense_per_vertex, mesh,
                                            fraction):
    target = max(int(mesh.num_faces * fraction), 1)
    with mock.patch.object(clustering, "_DENSE_PER_VERTEX",
                           dense_per_vertex):
        got = simplify_clustering(mesh, target)
    assert_same_mesh(got, reference_simplify_clustering(mesh, target))


@pytest.mark.parametrize("dense_per_vertex", [0, 10 ** 9],
                         ids=["unique-ranks", "dense-ranks"])
@given(mesh=meshes(), resolution=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_each_candidate_equals_the_built_one(dense_per_vertex, mesh,
                                             resolution):
    """Every resolution, accepted or not: a candidate is rejected exactly
    when the built one has no face or too many, else equal to it."""
    want = reference_cluster_once(mesh, mesh.aabb(), resolution)
    with mock.patch.object(clustering, "_DENSE_PER_VERTEX",
                           dense_per_vertex):
        for target in (want.num_faces, max(want.num_faces - 1, 1)):
            got = clustering._cluster(mesh, mesh.aabb(), resolution, target)
            if 0 < want.num_faces <= target:
                assert_same_mesh(got, want)
            else:
                assert got is None


def test_search_tries_resolution_one_then_the_proxy(monkeypatch):
    """A target below any clustered face count walks the search down to
    resolution 1 (which keeps no face) and returns the proxy."""
    sphere = icosphere(subdivisions=2)
    tried = []
    real = clustering._cluster
    monkeypatch.setattr(
        clustering, "_cluster",
        lambda mesh, box, resolution, target:
        tried.append(resolution) or real(mesh, box, resolution, target))
    for target in (1, 2, 5):
        tried.clear()
        got = simplify_clustering(sphere, target)
        assert tried[-1] == 1
        assert_same_mesh(got, reference_simplify_clustering(sphere, target))
        assert_same_mesh(got, clustering._triangle_proxy(sphere))


def test_search_order_is_the_building_search_order():
    """Halving for eight tries, then resolution 1 only if halving got
    there: 511 ends at 1, 512 at 2 (both with nine or eight tries)."""
    assert list(clustering._resolutions(1)) == [1]
    assert list(clustering._resolutions(2)) == [2, 1]
    assert list(clustering._resolutions(300)) == [300, 150, 75, 37, 18, 9,
                                                  4, 2, 1]
    assert list(clustering._resolutions(511))[-2:] == [3, 1]
    assert list(clustering._resolutions(512)) == [512 >> i
                                                  for i in range(8)]


def row_keys_structured(low, middle, high, n):
    """``_row_keys``' fallback for every ``n``: the rows themselves."""
    rows = np.stack((low, middle, high), axis=1)
    return rows.view([("a", rows.dtype), ("b", rows.dtype),
                      ("c", rows.dtype)]).ravel()


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
    compared = 0
    for mesh in meshes:
        # Resolution 1 collapses every vertex into one cluster (no face
        # survives); the finer grids leave duplicates to remove.
        for resolution in (1, 2, 3, 7, 64):
            box = mesh.aabb()
            keyed = clustering._cluster(mesh, box, resolution, 10 ** 9)
            with monkeypatch.context() as patch:
                patch.setattr(clustering, "_row_keys", row_keys_structured)
                rows = clustering._cluster(mesh, box, resolution, 10 ** 9)
            assert resolution > 1 or keyed is None
            if keyed is None or rows is None:
                assert keyed is rows
                continue
            compared += 1
            assert_same_mesh(keyed, rows)
    assert compared > 3 * len(meshes)


def test_cluster_dedup_falls_back_when_keys_would_overflow():
    faces = np.array([[0, 1, 2], [0, 1, 5], [0, 1, 2], [3, 4, 5],
                      [0, 1, 5]])
    expected = _first_occurrences_axis0(faces)
    for n in (6, 2 ** 21, 2 ** 21 + 1, 2 ** 40):     # 2**21 cubed = 2**63
        keys = clustering._row_keys(*faces.T, n)
        assert (keys.dtype == np.int64) == (n < 2 ** 21)
        _, first_idx = np.unique(keys, return_index=True)
        assert np.array_equal(np.sort(first_idx), expected)
