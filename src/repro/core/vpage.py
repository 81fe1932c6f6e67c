"""V-page data model and bottom-up instantiation.

A V-page holds the view-variant data of one tree node in one cell: a
``(DoV, NVO)`` pair per node entry (paper, Section 4.1: "The V-page
contains V-entries, one for each entry in a tree node").

:func:`instantiate_cell` computes all V-pages of one cell from the
per-object DoVs, applying the aggregation rules of Section 3.2:

* a leaf entry's DoV is its object's DoV; NVO is 1 if visible else 0;
* an internal entry's DoV is the sum of the DoVs in the child node it
  points to (attribute 2), and its NVO is the count of visible leaf
  descendants;
* only *visible* nodes (some entry DoV > 0) get a V-page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import HDoVError
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.vpagecodec import RawVPageCodec
from repro.visibility.dov import CellVisibility, aggregate_upward

#: One V-entry: (DoV, NVO).
VEntry = Tuple[float, int]


@dataclass
class CellVPages:
    """All V-pages of one cell, keyed by node offset.

    Nodes absent from ``pages`` are invisible in the cell.
    """

    cell_id: int
    pages: Dict[int, List[VEntry]]
    #: node offset -> its raw V-page image, kept by :meth:`raw_image`.
    raw_images: Dict[int, bytes] = field(default_factory=dict, repr=False,
                                         compare=False)

    def raw_image(self, node_offset: int, codec: RawVPageCodec,
                  page_size: int) -> bytes:
        """The node's raw V-page image, encoded by ``codec`` the first
        time one is asked for: every raw build of the dataset stores
        that same ``bytes`` object.  The image does not depend on the
        page size, which only bounds it, so a page too small for a kept
        image is encoded again to raise the serializer's error."""
        image = self.raw_images.get(node_offset)
        if image is None or len(image) > page_size:
            image = self.raw_images[node_offset] = codec.encode_page(
                node_offset, self.ventries(node_offset), page_size)
        return image

    def ventries(self, node_offset: int) -> List[VEntry]:
        try:
            return self.pages[node_offset]
        except KeyError:
            raise HDoVError(
                f"node {node_offset} is not visible in cell {self.cell_id}"
            ) from None

    def is_visible(self, node_offset: int) -> bool:
        return node_offset in self.pages

    def visible_offsets_dfs(self) -> List[int]:
        """Visible node offsets in DFS order (offsets *are* DFS indices,
        so this is just the sorted key list) — the on-disk V-page order of
        the vertical schemes."""
        return sorted(self.pages)


def instantiate_cell(tree: RTree, visibility: CellVisibility) -> CellVPages:
    """Compute the cell's V-pages bottom-up over the in-memory tree."""
    return instantiate_cells(tree, [visibility])[0]


def instantiate_cells(tree: RTree, cells: Iterable[CellVisibility]
                      ) -> List[CellVPages]:
    """:func:`instantiate_cell` for many cells of one tree.

    The object ids below each node are collected once, so every cell's
    recursion can stop at a subtree it sees nothing of — most of the
    tree, for most cells — instead of visiting all of it.
    """
    below: Dict[Node, Set[int]] = {}
    _collect_object_ids(tree.root, below)
    result: List[CellVPages] = []
    for visibility in cells:
        pages: Dict[int, List[VEntry]] = {}
        _instantiate_node(tree.root, visibility, below, pages)
        result.append(CellVPages(cell_id=visibility.cell_id, pages=pages))
    return result


def _collect_object_ids(node: Node, below: Dict[Node, Set[int]]) -> Set[int]:
    """Fill ``below``: node -> ids of the objects under it."""
    ids: Set[int] = set()
    for entry in node.entries:
        if entry.child is not None:
            ids |= _collect_object_ids(entry.child, below)
        elif entry.object_id is not None:
            ids.add(entry.object_id)
    below[node] = ids
    return ids


def _instantiate_node(node: Node, visibility: CellVisibility,
                      below: Dict[Node, Set[int]],
                      pages: Dict[int, List[VEntry]]) -> Tuple[float, int]:
    """Recursive helper: returns (sum of entry DoVs, visible object count)
    of ``node`` and records its V-page if visible."""
    if node.node_offset is None:
        raise HDoVError("node offsets unassigned; persist the tree first")
    ventries: List[VEntry] = []
    if node.is_leaf:
        for entry in node.entries:
            dov = visibility.get(entry.object_id)  # type: ignore[arg-type]
            ventries.append((dov, 1 if dov > 0.0 else 0))
    else:
        for child in node.children():
            # A subtree with no visible object sums to exactly (0.0, 0)
            # and records no page, so it is not descended into.
            if visibility.dov.keys().isdisjoint(below[child]):
                child_sum, child_nvo = 0.0, 0
            else:
                child_sum, child_nvo = _instantiate_node(
                    child, visibility, below, pages)
            ventries.append((aggregate_upward([child_sum]), child_nvo))
    total_dov = min(sum(d for d, _ in ventries), 1.0)
    total_nvo = sum(n for _, n in ventries)
    if any(d > 0.0 for d, _ in ventries):
        pages[node.node_offset] = ventries
    return total_dov, total_nvo


def check_vpage_invariants(tree: RTree, cell: CellVPages) -> None:
    """Raise :class:`HDoVError` on a violation of Section 3.2's attributes.

    1. every DoV >= 0;
    2. an internal entry's DoV equals the (clamped) sum of the child
       node's entry DoVs;
    3. a visible node has at least one visible child/object.
    """
    for node in tree.iter_nodes_dfs():
        if node.node_offset is None or not cell.is_visible(node.node_offset):
            continue
        ventries = cell.ventries(node.node_offset)
        if len(ventries) != node.num_entries:
            raise HDoVError("V-page entry count mismatch")
        if not any(d > 0.0 for d, _ in ventries):
            raise HDoVError("visible node with no visible entry")
        for entry, (dov, nvo) in zip(node.entries, ventries):
            if dov < 0.0:
                raise HDoVError(f"negative DoV {dov}")
            if entry.child is not None and dov > 0.0:
                child_offset = entry.child.node_offset
                if child_offset is None or not cell.is_visible(child_offset):
                    raise HDoVError(
                        "visible internal entry points to invisible node")
                child_entries = cell.ventries(child_offset)
                child_sum = min(sum(d for d, _ in child_entries), 1.0)
                if abs(child_sum - dov) > 1e-9:
                    raise HDoVError(
                        f"DoV aggregation mismatch: entry={dov}, "
                        f"child sum={child_sum}")
                child_nvo = sum(n for _, n in child_entries)
                if child_nvo != nvo:
                    raise HDoVError(
                        f"NVO aggregation mismatch: entry={nvo}, "
                        f"child sum={child_nvo}")
