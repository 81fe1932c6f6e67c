"""The R-tree proper: window query, traversal, invariant check."""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.constants import DEFAULT_FANOUT, DEFAULT_MIN_FILL
from repro.errors import RTreeError
from repro.geometry.aabb import AABB
from repro.rtree.node import Node


class RTree:
    """R-tree over 3-D AABBs, built by :func:`~repro.rtree.bulk.str_bulk_load`.

    Parameters
    ----------
    max_entries:
        Fan-out ``M``.  Non-root nodes hold at least ``m = int(M *
        DEFAULT_MIN_FILL)`` entries.
    """

    def __init__(self, max_entries: int = DEFAULT_FANOUT) -> None:
        if max_entries < 4:
            raise RTreeError(f"max_entries must be >= 4, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = max(1, int(max_entries * DEFAULT_MIN_FILL))
        self.root = Node(level=0)
        self.size = 0

    # -- queries -------------------------------------------------------------

    def window_query(self, box: AABB,
                     on_node: Optional[Callable[[Node], None]] = None
                     ) -> List[int]:
        """All object ids whose MBR intersects ``box``.

        ``on_node`` is invoked for every node visited, which is how the
        REVIEW baseline charges node I/O.
        """
        result: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if on_node is not None:
                on_node(node)
            for entry in node.entries:
                if not entry.mbr.intersects(box):
                    continue
                if entry.is_leaf_entry:
                    result.append(entry.object_id)  # type: ignore[arg-type]
                else:
                    stack.append(entry.child)  # type: ignore[arg-type]
        return result

    # -- traversal / introspection ----------------------------------------------

    def iter_nodes_dfs(self) -> Iterator[Node]:
        """Depth-first pre-order over nodes.

        This order defines ``node_offset`` at persistence time and the
        V-page layout of the vertical schemes, so it must be deterministic:
        children are visited in entry order.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(reversed(node.children()))

    def iter_leaves(self) -> Iterator[Node]:
        return (n for n in self.iter_nodes_dfs() if n.is_leaf)

    @property
    def height(self) -> int:
        """Number of levels (1 for a root-only tree)."""
        return self.root.level + 1

    @property
    def num_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes_dfs())

    def all_object_ids(self) -> List[int]:
        ids: List[int] = []
        for leaf in self.iter_leaves():
            ids.extend(e.object_id for e in leaf.entries)  # type: ignore[misc]
        return ids

    # -- validation -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`RTreeError` if any structural invariant is broken.

        Checked: parent MBRs contain child MBRs; fan-out bounds; every
        child one level below its parent, so all leaves sit at level 0.
        """
        for node in self.iter_nodes_dfs():
            if node is not self.root and node.num_entries < self.min_entries:
                raise RTreeError(
                    f"underfull node: {node.num_entries} < {self.min_entries}")
            if node.num_entries > self.max_entries:
                raise RTreeError("overfull node")
            for entry in node.entries:
                if entry.is_leaf_entry != node.is_leaf:
                    raise RTreeError("entry kind does not match node kind")
                if entry.child is None:
                    continue
                if entry.child.level != node.level - 1:
                    raise RTreeError("level mismatch between parent and child")
                if not entry.mbr.contains(entry.child.mbr()):
                    raise RTreeError("parent MBR does not contain child MBR")

    def __repr__(self) -> str:
        return (f"RTree(size={self.size}, height={self.height}, "
                f"M={self.max_entries}, m={self.min_entries})")
