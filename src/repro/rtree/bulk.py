"""Sort-Tile-Recursive (STR) bulk loading.

STR packing is the one tree builder.  It stands in for the paper's
one-at-a-time insertion with Ang–Tan's linear split [3]: measured under
both, more of the paper's result shapes hold under STR (DESIGN.md §5).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.constants import DEFAULT_FANOUT
from repro.errors import RTreeError
from repro.geometry.aabb import AABB
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.tree import RTree


def _chunk_evenly(items: List[Entry], capacity: int) -> List[List[Entry]]:
    """Split ``items`` into groups of at most ``capacity`` with sizes as
    even as possible — no trailing underfull group."""
    n = len(items)
    num_groups = max(int(math.ceil(n / capacity)), 1)
    base = n // num_groups
    extra = n % num_groups
    groups: List[List[Entry]] = []
    start = 0
    for g in range(num_groups):
        size = base + (1 if g < extra else 0)
        groups.append(items[start:start + size])
        start += size
    return [g for g in groups if g]


def _tile(entries: List[Entry], capacity: int) -> List[List[Entry]]:
    """Partition entries into groups of ~``capacity`` with STR tiling.

    Groups are balanced within each slab (and slabs are balanced across
    x) so no node ends up underfull: every non-root node holds at least
    ``RTree.min_entries`` entries.
    """
    n = len(entries)
    num_nodes = max(int(math.ceil(n / capacity)), 1)
    slabs_x = int(math.ceil(math.sqrt(num_nodes)))
    per_slab = int(math.ceil(n / slabs_x))

    def center(entry: Entry, axis: int) -> float:
        return float(entry.mbr.center[axis])

    entries = sorted(entries, key=lambda e: center(e, 0))
    groups: List[List[Entry]] = []
    for i in range(0, n, per_slab):
        slab = sorted(entries[i:i + per_slab], key=lambda e: center(e, 1))
        groups.extend(_chunk_evenly(slab, capacity))
    return groups


def str_bulk_load(items: Sequence[Tuple[AABB, int]],
                  max_entries: int = DEFAULT_FANOUT) -> RTree:
    """Build an R-tree over ``(mbr, object_id)`` pairs with STR packing."""
    if not items:
        raise RTreeError("cannot bulk load zero items")
    tree = RTree(max_entries=max_entries)

    level_nodes: List[Node] = []
    leaf_entries = [Entry(mbr=mbr, object_id=oid) for mbr, oid in items]
    for group in _tile(leaf_entries, max_entries):
        level_nodes.append(Node(level=0, entries=group))

    level = 0
    while len(level_nodes) > 1:
        level += 1
        upper_entries = [Entry(mbr=n.mbr(), child=n) for n in level_nodes]
        level_nodes = [Node(level=level, entries=group)
                       for group in _tile(upper_entries, max_entries)]

    tree.root = level_nodes[0]
    tree.size = len(items)
    return tree
