"""Triangle meshes.

Object models and LoDs are triangle meshes; the storage layer only needs
their polygon counts and byte sizes, but the simplifiers and the fidelity
metric operate on real vertices and faces.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import BYTES_PER_POLYGON
from repro.errors import GeometryError
from repro.geometry.aabb import AABB


class TriangleMesh:
    """An indexed triangle mesh.

    Attributes
    ----------
    vertices:
        ``(nv, 3)`` float64 array of vertex positions.
    faces:
        ``(nf, 3)`` int64 array of vertex indices.
    """

    __slots__ = ("vertices", "faces", "_aabb")

    def __init__(self, vertices, faces) -> None:
        verts = np.asarray(vertices, dtype=np.float64)
        tris = np.asarray(faces, dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise GeometryError(f"vertices must be (n, 3), got {verts.shape}")
        if tris.size == 0:
            tris = tris.reshape(0, 3)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise GeometryError(f"faces must be (m, 3), got {tris.shape}")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise GeometryError("face index out of range")
        if not np.all(np.isfinite(verts)):
            raise GeometryError("non-finite vertex coordinate")
        self.vertices = verts
        self.faces = tris
        self._aabb: Optional[AABB] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls) -> "TriangleMesh":
        return cls(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))

    @classmethod
    def merge(cls, meshes) -> "TriangleMesh":
        """Concatenate meshes into one, re-basing face indices."""
        meshes = [m for m in meshes if len(m.faces)]
        if not meshes:
            return cls.empty()
        verts = []
        faces = []
        base = 0
        for mesh in meshes:
            verts.append(mesh.vertices)
            faces.append(mesh.faces + base)
            base += len(mesh.vertices)
        return cls(np.vstack(verts), np.vstack(faces))

    # -- properties ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_polygons(self) -> int:
        """Alias used by the LoD/storage layers."""
        return self.num_faces

    @property
    def byte_size(self) -> int:
        """Modelled on-disk size of this mesh (see ``BYTES_PER_POLYGON``)."""
        return self.num_faces * BYTES_PER_POLYGON

    def aabb(self) -> AABB:
        """Bounding box of the mesh (cached)."""
        if self._aabb is None:
            if self.num_vertices == 0:
                raise GeometryError("empty mesh has no AABB")
            self._aabb = AABB.from_points(self.vertices)
        return self._aabb

    # -- geometry ----------------------------------------------------------

    def face_areas(self) -> np.ndarray:
        """Area of each triangle, shape ``(nf,)``."""
        tri = self.vertices[self.faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def surface_area(self) -> float:
        return float(self.face_areas().sum())

    def __repr__(self) -> str:
        return f"TriangleMesh(vertices={self.num_vertices}, faces={self.num_faces})"
