"""Uniform vertex-clustering simplification.

Linear-time stand-in for qslim: snap every vertex to the center of its
cell in a uniform grid over the mesh AABB, merge coincident vertices, drop
collapsed faces.  Used for object LoD chains and for the large aggregated
meshes that become internal LoDs — the paper only needs a coarse proxy
occupying the same space, and clustering delivers that at O(n).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeometryError
from repro.geometry.mesh import TriangleMesh


def simplify_clustering(mesh: TriangleMesh, target_faces: int,
                        max_iterations: int = 8) -> TriangleMesh:
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

    best = None
    for _ in range(max_iterations):
        candidate = _cluster_once(mesh, box, resolution)
        if candidate.num_faces <= target_faces and candidate.num_faces > 0:
            best = candidate
            break
        resolution = max(resolution // 2, 1)
        best = candidate
        if resolution == 1:
            best = _cluster_once(mesh, box, 1)
            break
    assert best is not None
    if best.num_faces > target_faces or best.num_faces == 0:
        return _triangle_proxy(mesh)
    return best


def _cluster_once(mesh: TriangleMesh, box, resolution: int) -> TriangleMesh:
    extent = np.maximum(box.extent, 1e-12)
    cell = extent / resolution
    idx = np.floor((mesh.vertices - box.lo) / cell).astype(np.int64)
    idx = np.clip(idx, 0, resolution - 1)
    keys = idx[:, 0] * resolution * resolution + idx[:, 1] * resolution + idx[:, 2]
    unique_keys, inverse = np.unique(keys, return_inverse=True)

    # Representative position: mean of the vertices in each cluster.
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
    # Deduplicate faces that collapsed onto each other (ignore winding).
    if len(new_faces):
        new_faces = new_faces[_first_occurrences(np.sort(new_faces, axis=1),
                                                 len(unique_keys))]
    return TriangleMesh(new_verts, new_faces).compacted()


def _first_occurrences(sorted_faces: np.ndarray, n: int) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row of
    ``sorted_faces`` (vertex ids in ``[0, n)``, each row ascending).

    A row is folded into one int64 key, ``(a * n + b) * n + c``, so the
    dedup is a 1-D ``np.unique`` instead of the structured-dtype argsort
    ``axis=0`` does; the keys are injective, hence the same first
    occurrences.  Meshes with ``n**3 >= 2**63`` clusters keep ``axis=0``.
    """
    if n ** 3 >= 2 ** 63:
        _, first_idx = np.unique(sorted_faces, axis=0, return_index=True)
    else:
        keys = ((sorted_faces[:, 0] * n + sorted_faces[:, 1]) * n
                + sorted_faces[:, 2])
        _, first_idx = np.unique(keys, return_index=True)
    return np.sort(first_idx)


def _triangle_proxy(mesh: TriangleMesh) -> TriangleMesh:
    """Single-triangle proxy spanning the largest face of the mesh AABB."""
    box = mesh.aabb()
    lo, hi = box.lo, box.hi
    verts = np.array([lo,
                      (hi[0], lo[1], lo[2]),
                      (lo[0], hi[1], hi[2])])
    return TriangleMesh(verts, np.array([[0, 1, 2]], dtype=np.int64))
