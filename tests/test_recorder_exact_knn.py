"""Mesh-exact DoV validator (the session recorder and kNN left with
their modules; the file keeps its name so these ids keep theirs)."""

import pytest

from repro.errors import VisibilityError
from repro.geometry.aabb import pack_aabbs
from repro.geometry.primitives import box_mesh, icosphere
from repro.visibility.exact import MeshDoVEstimator
from repro.visibility.raycast import RayCastDoVEstimator


# -- mesh-exact DoV vs AABB DoV --------------------------------------------

def test_exact_matches_boxes_for_box_meshes():
    """For box-shaped objects the AABB estimator *is* exact."""
    centers = [(15, 0, 0), (0, 20, 0), (-25, 0, 0)]
    meshes = [box_mesh(c, (4, 4, 4)) for c in centers]
    boxes = pack_aabbs([m.aabb() for m in meshes])
    approx = RayCastDoVEstimator(boxes, resolution=16)
    exact = MeshDoVEstimator(meshes, resolution=16)
    viewpoint = (0, 0, 0)
    a = approx.dov_from_viewpoint(viewpoint)
    e = exact.dov_from_viewpoint(viewpoint)
    assert set(a) == set(e)
    for oid in a:
        assert a[oid] == pytest.approx(e[oid], rel=1e-6)


def test_box_estimate_is_conservative_for_spheres():
    """A sphere's box over-estimates its DoV (never under-estimates)."""
    sphere = icosphere(radius=2.0, subdivisions=3, center=(12, 0, 0))
    approx = RayCastDoVEstimator(pack_aabbs([sphere.aabb()]),
                                 resolution=24)
    exact = MeshDoVEstimator([sphere], resolution=24)
    a = approx.dov_from_viewpoint((0, 0, 0))[0]
    e = exact.dov_from_viewpoint((0, 0, 0))[0]
    assert a >= e > 0.0


def test_exact_occlusion():
    wall = box_mesh((5, 0, 0), (1, 20, 20))
    hidden = box_mesh((15, 0, 0), (2, 2, 2))
    exact = MeshDoVEstimator([wall, hidden], resolution=16)
    dov = exact.dov_from_viewpoint((0, 0, 0))
    assert 0 in dov
    assert 1 not in dov


def test_exact_estimator_validation():
    with pytest.raises(VisibilityError):
        MeshDoVEstimator([])
    with pytest.raises(VisibilityError):
        MeshDoVEstimator([box_mesh((0, 0, 0), (1, 1, 1))], object_ids=[1, 2])
