"""R-tree nodes."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import RTreeError
from repro.geometry.aabb import AABB, union_aabbs
from repro.rtree.entry import Entry


class Node:
    """An R-tree node holding up to ``max_entries`` entries.

    ``level`` is 0 for leaves and grows toward the root.  Nodes keep a
    ``node_offset`` assigned at persistence time (the DFS index used by the
    V-page storage schemes to address visibility data).
    """

    __slots__ = ("level", "entries", "node_offset")

    def __init__(self, level: int = 0,
                 entries: Optional[List[Entry]] = None) -> None:
        if level < 0:
            raise RTreeError(f"negative level: {level}")
        self.level = level
        self.entries: List[Entry] = entries if entries is not None else []
        self.node_offset: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    def mbr(self) -> AABB:
        """Tight bounding box of all entries."""
        if not self.entries:
            raise RTreeError("empty node has no MBR")
        return union_aabbs(e.mbr for e in self.entries)

    def children(self) -> List["Node"]:
        if self.is_leaf:
            return []
        return [e.child for e in self.entries]  # type: ignore[misc]

    def __repr__(self) -> str:
        return (f"Node(level={self.level}, entries={self.num_entries}, "
                f"offset={self.node_offset})")
