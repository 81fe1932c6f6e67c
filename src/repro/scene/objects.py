"""Scene objects and scenes.

A :class:`SceneObject` couples an object id, an MBR, and the object's LoD
chain.  A :class:`Scene` is the ordered collection the tree builders and
visibility pipeline consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import GeometryError
from repro.geometry.aabb import AABB, pack_aabbs, union_aabbs
from repro.simplify.lod_chain import LODChain


@dataclass
class SceneObject:
    """One renderable object of the virtual environment."""

    object_id: int
    lods: LODChain
    #: Free-form category label ("building", "bunny", ...) used by
    #: generators and reports.
    category: str = "object"

    def __post_init__(self) -> None:
        if self.object_id < 0:
            raise GeometryError(f"negative object id: {self.object_id}")

    @property
    def mbr(self) -> AABB:
        return self.lods.finest.aabb()

    @property
    def num_polygons(self) -> int:
        """Polygon count of the finest LoD."""
        return self.lods.finest.num_faces

    @property
    def byte_size(self) -> int:
        """Modelled byte size of all LoDs of this object."""
        return sum(self.lods.byte_sizes())

    def __repr__(self) -> str:
        return (f"SceneObject(id={self.object_id}, cat={self.category!r}, "
                f"polys={self.num_polygons}, lods={self.lods.num_levels})")


class Scene:
    """An ordered, id-addressable collection of scene objects."""

    def __init__(self, objects: Optional[List[SceneObject]] = None) -> None:
        self._objects: List[SceneObject] = []
        self._by_id: Dict[int, SceneObject] = {}
        for obj in objects or []:
            self.add(obj)

    def add(self, obj: SceneObject) -> None:
        if obj.object_id in self._by_id:
            raise GeometryError(f"duplicate object id {obj.object_id}")
        self._objects.append(obj)
        self._by_id[obj.object_id] = obj

    def get(self, object_id: int) -> SceneObject:
        try:
            return self._by_id[object_id]
        except KeyError:
            raise GeometryError(f"unknown object id {object_id}") from None

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[SceneObject]:
        return iter(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._by_id

    @property
    def objects(self) -> List[SceneObject]:
        return list(self._objects)

    def object_ids(self) -> List[int]:
        return [o.object_id for o in self._objects]

    def bounds(self) -> AABB:
        if not self._objects:
            raise GeometryError("empty scene has no bounds")
        return union_aabbs(o.mbr for o in self._objects)

    def packed_mbrs(self) -> np.ndarray:
        """``(n, 6)`` packed MBR array in object order (for ray casting)."""
        return pack_aabbs([o.mbr for o in self._objects])

    def total_polygons(self) -> int:
        return sum(o.num_polygons for o in self._objects)

    def total_bytes(self) -> int:
        """Modelled raw dataset size (all objects, all LoDs)."""
        return sum(o.byte_size for o in self._objects)

    def __repr__(self) -> str:
        return (f"Scene(objects={len(self)}, polys={self.total_polygons()}, "
                f"bytes={self.total_bytes()})")
