"""Vectorised ray casting.

The DoV computation replaces the paper's hardware-accelerated item-buffer
rendering with a software equivalent: cast a grid of rays that uniformly
sample the unit sphere of directions around a viewpoint, intersect them
with all object AABBs, and attribute each ray's solid angle to the nearest
hit.  The AABB intersection paths all delegate to the single
octant-grouped slab kernel in :mod:`repro.geometry.slab`; this module
keeps the direction-grid construction and the triangle kernel.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.slab import NO_HIT, slab_entry_matrix, slab_nearest
from repro.geometry.vec import normalize_rows

__all__ = ["NO_HIT", "sphere_direction_grid", "cube_map_solid_angles",
           "rays_vs_aabbs", "nearest_hits", "ray_aabb_intersect",
           "rays_vs_triangles"]


def sphere_direction_grid(resolution: int) -> np.ndarray:
    """Directions covering the full sphere with ~equal solid angle each.

    We use the cube-map parameterisation: 6 faces of ``resolution^2``
    texels, each texel direction weighted later by its exact solid angle
    (see :func:`cube_map_solid_angles`).  Returns ``(6 * resolution^2, 3)``
    unit vectors.
    """
    if resolution < 1:
        raise GeometryError(f"resolution must be >= 1, got {resolution}")
    # Texel centers in [-1, 1] on the face plane.
    ticks = (np.arange(resolution) + 0.5) / resolution * 2.0 - 1.0
    u, v = np.meshgrid(ticks, ticks, indexing="ij")
    u = u.ravel()
    v = v.ravel()
    ones = np.ones_like(u)
    faces = [
        np.stack([ones, u, v], axis=1),    # +x
        np.stack([-ones, u, v], axis=1),   # -x
        np.stack([u, ones, v], axis=1),    # +y
        np.stack([u, -ones, v], axis=1),   # -y
        np.stack([u, v, ones], axis=1),    # +z
        np.stack([u, v, -ones], axis=1),   # -z
    ]
    return normalize_rows(np.vstack(faces))


def cube_map_solid_angles(resolution: int) -> np.ndarray:
    """Solid angle of each texel of :func:`sphere_direction_grid`.

    For a cube-map texel at face coordinates (u, v) with half-width w, the
    differential solid angle is ``dA / (1 + u^2 + v^2)^(3/2)``.  The sum over
    all 6 faces is exactly ``4 * pi`` (up to discretisation error well below
    1e-6 at resolution >= 8).
    """
    if resolution < 1:
        raise GeometryError(f"resolution must be >= 1, got {resolution}")
    ticks = (np.arange(resolution) + 0.5) / resolution * 2.0 - 1.0
    u, v = np.meshgrid(ticks, ticks, indexing="ij")
    texel_area = (2.0 / resolution) ** 2
    omega = texel_area / np.power(1.0 + u ** 2 + v ** 2, 1.5)
    per_face = omega.ravel()
    return np.tile(per_face, 6)


def rays_vs_aabbs(origin, directions: np.ndarray,
                  boxes: np.ndarray) -> np.ndarray:
    """Nearest-hit parametric distance of each ray against each box.

    Parameters
    ----------
    origin:
        Ray origin shared by all rays, shape ``(3,)``.
    directions:
        Unit directions, shape ``(r, 3)``.
    boxes:
        Packed AABBs, shape ``(b, 6)`` as produced by
        :func:`repro.geometry.aabb.pack_aabbs`.

    Returns
    -------
    numpy.ndarray
        ``(r, b)`` array of entry distances ``t >= 0`` (slab method), with
        ``NO_HIT`` where a ray misses a box.  Rays starting inside a box hit
        it at ``t = 0``.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(directions, dtype=np.float64)
    if boxes.size == 0:
        return np.full((len(dirs), 0), NO_HIT)
    return slab_entry_matrix(origin, dirs, boxes[:, 0:3], boxes[:, 3:6])


def nearest_hits(origin, directions: np.ndarray,
                 boxes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-ray nearest box id and distance.

    Returns ``(ids, ts)`` with ``ids[i] = -1`` and ``ts[i] = NO_HIT``
    for misses.
    """
    dirs = np.asarray(directions, dtype=np.float64)
    if boxes.size == 0:
        return (np.full(len(dirs), -1, dtype=np.int64),
                np.full(len(dirs), NO_HIT))
    origin2d = np.asarray(origin, dtype=np.float64)[None, :]
    ids, ts = slab_nearest(origin2d, dirs, boxes[:, 0:3], boxes[:, 3:6])
    return ids[0], ts[0]


def ray_aabb_intersect(origin, direction, box_lo, box_hi) -> Optional[float]:
    """Scalar convenience wrapper: entry distance or ``None`` on a miss."""
    boxes = np.concatenate([np.asarray(box_lo, np.float64),
                            np.asarray(box_hi, np.float64)])[None, :]
    t = rays_vs_aabbs(origin, np.asarray(direction, np.float64)[None, :], boxes)
    value = float(t[0, 0])
    return None if value == NO_HIT else value


def rays_vs_triangles(origin, directions: np.ndarray,
                      triangles: np.ndarray) -> np.ndarray:
    """Möller–Trumbore intersection of rays against packed triangles.

    ``triangles`` has shape ``(m, 3, 3)``.  Returns ``(r, m)`` distances with
    ``NO_HIT`` for misses.  Used by the high-accuracy fidelity metric; the
    AABB kernel above is the fast path.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(directions, dtype=np.float64)
    tri = np.asarray(triangles, dtype=np.float64)
    if tri.size == 0:
        return np.full((len(dirs), 0), NO_HIT)
    v0 = tri[:, 0]
    e1 = tri[:, 1] - v0                                    # (m, 3)
    e2 = tri[:, 2] - v0
    pvec = np.cross(dirs[:, None, :], e2[None, :, :])       # (r, m, 3)
    det = np.einsum("mk,rmk->rm", e1, pvec)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = 1.0 / det
        tvec = origin - v0                                  # (m, 3)
        u = np.einsum("mk,rmk->rm", tvec, pvec) * inv_det
        qvec = np.cross(tvec, e1)                           # (m, 3)
        v = np.einsum("rk,mk->rm", dirs, qvec) * inv_det
        t = np.einsum("mk,mk->m", e2, qvec)[None, :] * inv_det
    eps = 1e-12
    with np.errstate(invalid="ignore"):
        hit = ((np.abs(det) > eps) & (u >= -eps) & (v >= -eps)
               & (u + v <= 1.0 + eps) & (t > eps))
    return np.where(hit, t, NO_HIT)
