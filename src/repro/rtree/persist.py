"""Persisting R-tree nodes to pages.

Nodes are written one per page in DFS pre-order; a node's position in that
order is its *node offset*, the key the V-page storage schemes use to look
up visibility data (paper, Section 4.2: "Each node in the tree stores an
offset starting from the beginning of the segment of the V-page-index").

The persisted form is what the search algorithms actually read at query
time, so node I/O is charged through the backing
:class:`~repro.storage.pagedfile.PagedFile`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import RTreeError
from repro.geometry.aabb import AABB
from repro.rtree.tree import RTree
from repro.storage import pageio
from repro.storage.pagedfile import PagedFile
from repro.storage.serializer import (NIL, NodeEntries, decode_node,
                                      encode_node)

KIND_LEAF = 0
KIND_INTERNAL = 1


class PersistedNode:
    """Decoded on-page node, entries held as columns.

    ``targets`` (child node offsets, or object ids in a leaf) and
    ``lod_ptrs`` are tuples of ``int``; ``mbrs`` is the read-only
    float64 ``(n, 6)`` array of ``lo.xyz, hi.xyz`` rows.  The columns
    are shared with every other reader of the same pooled page and must
    not be mutated.
    """

    __slots__ = ("page_id", "kind", "level", "node_offset", "mbrs",
                 "targets", "lod_ptrs")

    def __init__(self, page_id: int, kind: int, level: int, node_offset: int,
                 entries: NodeEntries) -> None:
        self.page_id = page_id
        self.kind = kind
        self.level = level
        self.node_offset = node_offset
        self.mbrs = entries.mbrs
        self.targets = entries.targets
        self.lod_ptrs = entries.lod_ptrs

    @property
    def is_leaf(self) -> bool:
        return self.kind == KIND_LEAF

    @property
    def entries(self) -> NodeEntries:
        """Row view ``(mbr row, target, lod pointer)`` over the columns."""
        return NodeEntries(self.mbrs, self.targets, self.lod_ptrs)

    def __repr__(self) -> str:
        return (f"PersistedNode(page={self.page_id}, offset={self.node_offset}, "
                f"level={self.level}, entries={len(self.targets)})")


def persisted_node(page_id: int, node_offset: int,
                   decoded: Tuple[int, int, int, NodeEntries]
                   ) -> PersistedNode:
    """The node a store hands out for ``node_offset``, from the decoded
    page it fetched: every store checks here, per read, that the page
    holds the node that was asked for."""
    kind, level, stored_offset, entries = decoded
    if stored_offset != node_offset:
        raise RTreeError(
            f"node offset mismatch: page says {stored_offset}, "
            f"asked for {node_offset}")
    return PersistedNode(page_id, kind, level, node_offset, entries)


def rtree_reader(pfile: PagedFile, first_page: int, count: int) -> bytes:
    """Buffer-pool miss reader of the pool-fronted node stores: the
    sanctioned rtree-component read of ``count`` pages."""
    return pageio.read_run(pfile, first_page, count, component="rtree")


class NodeStore:
    """Reads and writes tree nodes in a paged file."""

    def __init__(self, pfile: PagedFile) -> None:
        self.pfile = pfile
        self.root_page: Optional[int] = None
        self.num_nodes = 0
        #: node offset -> page id, filled at write time.
        self.offset_to_page: Dict[int, int] = {}
        #: page id -> (the stored image last read, the node it holds).
        self._decoded: Dict[int, Tuple[bytes, PersistedNode]] = {}

    def write_tree(self, tree: RTree,
                   lod_pointers: Optional[Dict[int, int]] = None) -> int:
        """Persist every node of ``tree``; returns the root's page id.

        Side effects: assigns ``node.node_offset`` on the in-memory nodes
        (DFS pre-order index).  ``lod_pointers`` optionally maps a node
        offset to the blob id of that node's internal LoD, stored in the
        node header's vindex field by the HDoV layer separately; here the
        per-entry ``lod_ptr`` field carries the *object* LoD pointer for
        leaf entries and ``NIL`` otherwise.
        """
        nodes = list(tree.iter_nodes_dfs())
        for offset, node in enumerate(nodes):
            node.node_offset = offset
        self.num_nodes = len(nodes)

        # Pages in DFS order, so offsets map to contiguous pages, written
        # as one run.
        first = self.pfile.allocate_many(len(nodes))
        self.offset_to_page = {offset: first + offset
                               for offset in range(len(nodes))}
        payloads: List[bytes] = []
        for node in nodes:
            entries: List[Tuple[AABB, int, int]] = []
            for entry in node.entries:
                if entry.is_leaf_entry:
                    oid = entry.object_id
                    lod_ptr = (lod_pointers or {}).get(oid, NIL)  # type: ignore[arg-type]
                    entries.append((entry.mbr, oid, lod_ptr))    # type: ignore[arg-type]
                else:
                    child_offset = entry.child.node_offset        # type: ignore[union-attr]
                    if child_offset is None:
                        raise RTreeError("child offset unassigned")
                    entries.append((entry.mbr, child_offset, NIL))
            kind = KIND_LEAF if node.is_leaf else KIND_INTERNAL
            payloads.append(encode_node(kind, node.level, node.node_offset,
                                        entries, self.pfile.page_size))
        pageio.write_run(self.pfile, first, payloads, component="rtree")
        self.root_page = first
        return self.root_page

    def page_of(self, node_offset: int) -> int:
        """Page id holding the node at ``node_offset``."""
        try:
            return self.offset_to_page[node_offset]
        except KeyError:
            raise RTreeError(f"unknown node offset {node_offset}") from None

    def read_node(self, node_offset: int) -> PersistedNode:
        """Fetch and decode the node at ``node_offset`` (one page read).

        The read is always made and charged; when it hands back an image
        equal to the one decoded last time for this page (a 4 KiB
        compare, not a decode), the node built then is handed out again
        — if it is the node asked for; otherwise the page is decoded
        again, and :func:`persisted_node`'s check raises.  No file of a
        built environment is written after the build, but a flipped bit
        yields a different image, so that page is decoded and validated
        again.
        """
        page_id = self.page_of(node_offset)
        data = pageio.read_page(self.pfile, page_id, component="rtree")
        seen = self._decoded.get(page_id)
        if (seen is not None and seen[0] == data
                and seen[1].node_offset == node_offset):
            return seen[1]
        node = persisted_node(page_id, node_offset, decode_node(data))
        self._decoded[page_id] = (data, node)
        return node
