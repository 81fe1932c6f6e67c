"""Uniform vertex-clustering simplification.

Linear-time stand-in for qslim: snap every vertex to the center of its
cell in a uniform grid over the mesh AABB, merge coincident vertices, drop
collapsed faces.  Used for object LoD chains and for the large aggregated
meshes that become internal LoDs — the paper only needs a coarse proxy
occupying the same space, and clustering delivers that at O(n).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from repro.errors import GeometryError
from repro.geometry.mesh import TriangleMesh


#: Grid resolutions the search tries before the single-triangle proxy.
MAX_ITERATIONS = 8
#: Grids of at most this many cells per vertex rank the vertex keys by a
#: dense table (a bool per cell and its cumsum), finer ones by np.unique.
_DENSE_PER_VERTEX = 8


def simplify_clustering(mesh: TriangleMesh,
                        target_faces: int) -> TriangleMesh:
    """Cluster vertices until the face count is at most ``target_faces``.

    The grid resolution is searched geometrically: start from a resolution
    estimated from the face ratio and halve until the target is met.
    Always terminates (resolution 1 collapses the mesh to at most a few
    faces, and an ultimate single-triangle proxy is returned if needed).
    """
    if target_faces < 1:
        raise GeometryError(f"target_faces must be >= 1, got {target_faces}")
    if mesh.num_faces <= target_faces:
        return mesh

    box = mesh.aabb()
    # Faces scale ~ resolution^2 for surface meshes.
    ratio = target_faces / mesh.num_faces
    resolution = max(int(math.sqrt(ratio) * math.sqrt(mesh.num_faces)), 1)
    for resolution in _resolutions(resolution):
        clustered = _cluster(mesh, box, resolution, target_faces)
        if clustered is not None:
            return clustered
    return _triangle_proxy(mesh)


def _resolutions(resolution: int) -> Iterator[int]:
    """Halve for ``MAX_ITERATIONS`` tries; try 1 once halving reaches it."""
    for _ in range(MAX_ITERATIONS):
        yield resolution
        if resolution == 1:
            return
        resolution //= 2
    if resolution == 1:
        yield 1


def _cluster(mesh: TriangleMesh, box, resolution: int,
             target_faces: int) -> Optional[TriangleMesh]:
    """The mesh clustered on a ``resolution``-cubed grid over ``box``, or
    ``None`` if it keeps no face or more than ``target_faces``: a
    rejected grid costs only its face count."""
    cell = np.maximum(box.extent, 1e-12) / resolution
    # Truncation is floor here: no vertex lies below ``box.lo``.
    idx = ((mesh.vertices - box.lo) / cell).astype(np.int64)
    np.minimum(idx, resolution - 1, out=idx)
    keys = idx[:, 0] * resolution * resolution + idx[:, 1] * resolution + idx[:, 2]
    # A vertex's cluster is its cell's rank among the occupied cells.
    if resolution ** 3 <= _DENSE_PER_VERTEX * len(keys):
        occupied = np.zeros(resolution ** 3, dtype=bool)
        occupied[keys] = True
        ranks = np.cumsum(occupied)
        inverse, count = ranks[keys] - 1, int(ranks[-1])
    else:
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        count = len(unique_keys)

    corners = inverse[mesh.faces.T]
    first, second, third = corners
    low = np.minimum(np.minimum(first, second), third)
    high = np.maximum(np.maximum(first, second), third)
    middle = first + second + third - low - high
    kept = np.flatnonzero((low < middle) & (middle < high))
    # Faces that collapsed onto each other count once (winding ignored).
    rows = _row_keys(low[kept], middle[kept], high[kept], count)
    ordered = np.sort(rows)
    num_faces = np.count_nonzero(ordered[1:] != ordered[:-1]) + (len(rows) > 0)
    if not 0 < num_faces <= target_faces:
        return None
    _, first_idx = np.unique(rows, return_index=True)
    faces = corners[:, kept[np.sort(first_idx)]].T

    # Each used cluster at the mean of its vertices, renumbered in order.
    # ``np.bincount`` adds a cluster's vertices in index order: the sums
    # are the same floats as adding them one vertex at a time.
    sums = np.stack([np.bincount(inverse, weights=column, minlength=count)
                     for column in mesh.vertices.T], axis=1)
    sizes = np.bincount(inverse, minlength=count)
    used = np.zeros(count, dtype=bool)
    used[faces] = True
    renumber = np.cumsum(used) - 1
    return TriangleMesh(sums[used] / sizes[used, None], renumber[faces])


def _row_keys(low: np.ndarray, middle: np.ndarray, high: np.ndarray,
              n: int) -> np.ndarray:
    """One key per ascending row ``(low, middle, high)`` of ids in ``[0,
    n)``, equal exactly where the rows are: the int64 ``(a * n + b) * n +
    c``, or with ``n**3 >= 2**63`` the row itself as a structured scalar
    (what ``np.unique(..., axis=0)`` sorts)."""
    if n ** 3 < 2 ** 63:
        return (low * n + middle) * n + high
    rows = np.stack((low, middle, high), axis=1)
    return rows.view([("low", rows.dtype), ("middle", rows.dtype),
                      ("high", rows.dtype)]).ravel()


def _triangle_proxy(mesh: TriangleMesh) -> TriangleMesh:
    """Single-triangle proxy spanning the largest face of the mesh AABB."""
    box = mesh.aabb()
    lo, hi = box.lo, box.hi
    verts = np.array([lo,
                      (hi[0], lo[1], lo[2]),
                      (lo[0], hi[1], hi[2])])
    return TriangleMesh(verts, np.array([[0, 1, 2]], dtype=np.int64))
