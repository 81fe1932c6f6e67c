"""Procedural mesh primitives.

The paper's dataset is "a synthetic city model containing numerous
buildings and bunny models".  We generate the equivalent procedurally:
boxes and extruded towers for buildings, subdivided icospheres with
deterministic noise ("bunny blobs") for organic models.  Every generator
is deterministic given its arguments (noise takes an explicit seed).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.mesh import TriangleMesh
from repro.geometry.vec import normalize_rows

# Golden-ratio icosahedron template.
_PHI = (1.0 + 5.0 ** 0.5) / 2.0

_ICO_VERTS = np.array([
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
], dtype=np.float64)

_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def box_mesh(center, extent) -> TriangleMesh:
    """A 12-triangle axis-aligned box with full side lengths ``extent``."""
    c = np.asarray(center, dtype=np.float64)
    e = np.asarray(extent, dtype=np.float64)
    if np.any(e <= 0):
        raise GeometryError(f"box extent must be positive, got {e}")
    half = e / 2.0
    signs = np.array([(x, y, z)
                      for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                     dtype=np.float64)
    verts = c + signs * half
    # Corner ordering: index bit2=x, bit1=y, bit0=z (0 => lo, 1 => hi).
    faces = np.array([
        (0, 1, 3), (0, 3, 2),          # -x face
        (4, 6, 7), (4, 7, 5),          # +x face
        (0, 4, 5), (0, 5, 1),          # -y face
        (2, 3, 7), (2, 7, 6),          # +y face
        (0, 2, 6), (0, 6, 4),          # -z face
        (1, 5, 7), (1, 7, 3),          # +z face
    ], dtype=np.int64)
    return TriangleMesh(verts, faces)


def _subdivide(verts: np.ndarray, faces: np.ndarray):
    """One loop of 1:4 triangle subdivision with midpoint dedup."""
    midpoint_cache: dict = {}
    verts_list = list(map(tuple, verts))

    def midpoint(i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in midpoint_cache:
            mid = (np.array(verts_list[i]) + np.array(verts_list[j])) / 2.0
            verts_list.append(tuple(mid))
            midpoint_cache[key] = len(verts_list) - 1
        return midpoint_cache[key]

    new_faces = []
    for a, b, c in faces:
        ab = midpoint(a, b)
        bc = midpoint(b, c)
        ca = midpoint(c, a)
        new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return (np.array(verts_list, dtype=np.float64),
            np.array(new_faces, dtype=np.int64))


#: Cache of unit-sphere templates per subdivision level; bunny generation
#: reuses them instead of re-subdividing for every model.
_SPHERE_CACHE: dict = {}


def _sphere_template(subdivisions: int):
    cached = _SPHERE_CACHE.get(subdivisions)
    if cached is None:
        verts, faces = _ICO_VERTS, _ICO_FACES
        for _ in range(subdivisions):
            verts, faces = _subdivide(verts, faces)
        verts = normalize_rows(verts)
        verts.setflags(write=False)
        faces.setflags(write=False)
        cached = (verts, faces)
        _SPHERE_CACHE[subdivisions] = cached
    return cached


def icosphere(radius: float = 1.0, subdivisions: int = 2,
              center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Unit icosahedron subdivided ``subdivisions`` times, projected to a
    sphere of ``radius``.  Face counts: 20 * 4**subdivisions."""
    if radius <= 0:
        raise GeometryError(f"radius must be positive, got {radius}")
    if subdivisions < 0 or subdivisions > 6:
        raise GeometryError(f"subdivisions out of range: {subdivisions}")
    verts, faces = _sphere_template(subdivisions)
    return TriangleMesh(verts * radius + np.asarray(center, np.float64),
                        faces.copy())


def bunny_blob(radius: float = 1.0, subdivisions: int = 2, seed: int = 0,
               bumpiness: float = 0.25, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """An organic "bunny-like" blob: an icosphere displaced by smooth,
    deterministic radial noise.

    This stands in for the Stanford bunny models of the paper's dataset —
    what the experiments need is a non-convex, dense organic mesh, not the
    actual bunny geometry.
    """
    if not 0.0 <= bumpiness < 1.0:
        raise GeometryError(f"bumpiness must be in [0, 1), got {bumpiness}")
    sphere = icosphere(radius=1.0, subdivisions=subdivisions)
    rng = np.random.default_rng(seed)
    # Smooth noise: a small random set of spherical harmonics-ish lobes.
    lobes = normalize_rows(rng.normal(size=(6, 3)))
    weights = rng.uniform(0.3, 1.0, size=6)
    dirs = normalize_rows(sphere.vertices)
    bump = np.zeros(len(dirs))
    for lobe, weight in zip(lobes, weights):
        bump += weight * np.maximum(dirs @ lobe, 0.0) ** 2
    bump = bump / bump.max() if bump.max() > 0 else bump
    radii = radius * (1.0 + bumpiness * (bump - 0.5))
    verts = dirs * radii[:, None] + np.asarray(center, np.float64)
    return TriangleMesh(verts, sphere.faces)


def tower_mesh(center, footprint, height: float, tiers: int = 1) -> TriangleMesh:
    """A building made of ``tiers`` stacked boxes that shrink upward.

    ``footprint`` is the (x, y) base size; the tower is extruded in +z.
    """
    if tiers < 1:
        raise GeometryError(f"tiers must be >= 1, got {tiers}")
    if height <= 0:
        raise GeometryError(f"height must be positive, got {height}")
    cx, cy, cz = np.asarray(center, dtype=np.float64)
    fx, fy = float(footprint[0]), float(footprint[1])
    tier_height = height / tiers
    parts = []
    for i in range(tiers):
        shrink = 1.0 - 0.25 * i / max(tiers - 1, 1) if tiers > 1 else 1.0
        extent = (fx * shrink, fy * shrink, tier_height)
        tier_center = (cx, cy, cz + tier_height * (i + 0.5))
        parts.append(box_mesh(tier_center, extent))
    return TriangleMesh.merge(parts)
