"""LoD chains for objects.

Every object stores a chain of LoDs, finest first (paper: "each object
typically has multi-resolution representations called level-of-details").
The chain records both the simplified meshes and their modelled byte
sizes, so the storage layer can allocate blobs per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.constants import DEFAULT_OBJECT_LOD_LEVELS
from repro.errors import GeometryError
from repro.geometry.mesh import TriangleMesh
from repro.simplify.clustering import simplify_clustering


@dataclass
class LODChain:
    """Multi-resolution representations of one mesh, finest first."""

    levels: List[TriangleMesh]

    def __post_init__(self) -> None:
        if not self.levels:
            raise GeometryError("LoD chain needs at least one level")
        for coarse, fine in zip(self.levels[1:], self.levels[:-1]):
            if coarse.num_faces > fine.num_faces:
                raise GeometryError(
                    "LoD chain must be ordered finest -> coarsest")
        #: Face counts eqs. 5/6 blend between (``levels`` is not mutated).
        self._hi = self.levels[0].num_faces
        self._lo = self.levels[-1].num_faces

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> TriangleMesh:
        return self.levels[0]

    @property
    def coarsest(self) -> TriangleMesh:
        return self.levels[-1]

    def polygons(self) -> List[int]:
        return [m.num_faces for m in self.levels]

    def byte_sizes(self) -> List[int]:
        return [m.byte_size for m in self.levels]

    def interpolated_polygons(self, k: float) -> int:
        """Polygon count of the blended LoD of equations 5/6.

        The paper blends the highest and lowest LoDs linearly; the polygon
        load of the blend is the same linear combination of counts.
        """
        if not 0.0 <= k <= 1.0:
            raise GeometryError(f"blend factor out of [0, 1]: {k}")
        return int(round(k * self._hi + (1.0 - k) * self._lo))


def build_lod_chain(mesh: TriangleMesh,
                    num_levels: int = DEFAULT_OBJECT_LOD_LEVELS,
                    reduction: float = 0.25) -> LODChain:
    """Build a chain of ``num_levels`` LoDs, each ``reduction`` times the
    faces of the previous level (minimum 4 faces), by vertex clustering.
    """
    if num_levels < 1:
        raise GeometryError(f"num_levels must be >= 1, got {num_levels}")
    if not 0.0 < reduction < 1.0:
        raise GeometryError(f"reduction must be in (0, 1), got {reduction}")

    levels = [mesh]
    current = mesh
    for _ in range(num_levels - 1):
        target = max(int(current.num_faces * reduction), 4)
        if target >= current.num_faces:
            levels.append(current)
            continue
        current = simplify_clustering(current, target)
        levels.append(current)
    return LODChain(levels)
