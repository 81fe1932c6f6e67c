"""The R-tree proper: insertion, window query, traversal."""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from repro.constants import DEFAULT_FANOUT, DEFAULT_MIN_FILL
from repro.errors import RTreeError
from repro.geometry.aabb import AABB
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.split import SplitFn, get_split_algorithm


class RTree:
    """Guttman R-tree over 3-D AABBs.

    Parameters
    ----------
    max_entries:
        Fan-out ``M``.
    min_fill:
        Fraction of ``M`` that non-root nodes must hold (``m = ceil(M *
        min_fill)``).
    split:
        Name of the node-splitting algorithm (``"ang-tan"`` by default,
        matching the paper's builder; ``"guttman"`` is the ablation
        alternative).
    """

    def __init__(self, max_entries: int = DEFAULT_FANOUT,
                 min_fill: float = DEFAULT_MIN_FILL,
                 split: str = "ang-tan") -> None:
        if max_entries < 4:
            raise RTreeError(f"max_entries must be >= 4, got {max_entries}")
        if not 0.0 < min_fill <= 0.5:
            raise RTreeError(f"min_fill must be in (0, 0.5], got {min_fill}")
        self.max_entries = max_entries
        self.min_entries = max(1, int(max_entries * min_fill))
        self.split_name = split
        self._split: SplitFn = get_split_algorithm(split)
        self.root = Node(level=0)
        self.size = 0

    # -- insertion ------------------------------------------------------------

    def insert(self, mbr: AABB, object_id: int) -> None:
        """Insert one object.  Duplicated ids are allowed (caller's choice)."""
        leaf = self._choose_leaf(self.root, mbr)
        leaf.add(Entry(mbr=mbr, object_id=object_id))
        self.size += 1
        self._handle_overflow(leaf)

    def _choose_leaf(self, node: Node, mbr: AABB) -> Node:
        while not node.is_leaf:
            best = min(
                node.entries,
                key=lambda e: (e.mbr.enlargement(mbr), e.mbr.volume))
            node = best.child  # type: ignore[assignment]
        return node

    def _handle_overflow(self, node: Node) -> None:
        while node.num_entries > self.max_entries:
            group_a, group_b = self._split(node.entries, self.min_entries)
            parent = node.parent
            node_b = Node(level=node.level, entries=group_b)
            node.entries = group_a
            for entry in node.entries:
                if entry.child is not None:
                    entry.child.parent = node
            if parent is None:
                new_root = Node(level=node.level + 1)
                new_root.add(Entry(mbr=node.mbr(), child=node))
                new_root.add(Entry(mbr=node_b.mbr(), child=node_b))
                self.root = new_root
                return
            parent.entry_for_child(node).mbr = node.mbr()
            parent.add(Entry(mbr=node_b.mbr(), child=node_b))
            node = parent
        self._tighten_upward(node)

    def _tighten_upward(self, node: Node) -> None:
        while node.parent is not None:
            entry = node.parent.entry_for_child(node)
            tight = node.mbr()
            if entry.mbr == tight:
                break
            entry.mbr = tight
            node = node.parent

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

        Checked: parent MBRs contain child MBRs; fan-out bounds; uniform
        leaf depth; parent pointers consistent.
        """
        expected_leaf_level = 0
        for node, depth in self._iter_with_depth():
            if not node.is_leaf and node.level != node.children()[0].level + 1:
                raise RTreeError("level mismatch between parent and child")
            if node is not self.root:
                if node.num_entries < self.min_entries:
                    raise RTreeError(
                        f"underfull node: {node.num_entries} < {self.min_entries}")
            if node.num_entries > self.max_entries:
                raise RTreeError("overfull node")
            for entry in node.entries:
                if entry.child is not None:
                    if entry.child.parent is not node:
                        raise RTreeError("broken parent pointer")
                    if not entry.mbr.contains(entry.child.mbr()):
                        raise RTreeError("parent MBR does not contain child MBR")
            if node.is_leaf:
                if node.level != expected_leaf_level:
                    raise RTreeError("leaf at nonzero level")

    def _iter_with_depth(self) -> Iterator[Tuple[Node, int]]:
        stack: List[Tuple[Node, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in node.children():
                stack.append((child, depth + 1))

    def __repr__(self) -> str:
        return (f"RTree(size={self.size}, height={self.height}, "
                f"M={self.max_entries}, m={self.min_entries}, "
                f"split={self.split_name!r})")
