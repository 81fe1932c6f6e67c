"""Node reads through the shared serving buffer pool.

The paper's single-viewer prototype caches no tree nodes ("None of the
two systems caches the tree nodes in the queries"), but a *service*
amortizes exactly that: many sessions traverse the same upper tree
levels, so the root and its children stay hot in the shared pool and
only one session pays each page's disk read per residency.

Misses are routed through the sanctioned ``repro.storage.pageio``
facade, so they are retried, attributed to the ``rtree`` component, and
charged to the simulated clock exactly like unpooled node reads.
"""

from __future__ import annotations

from repro.rtree.persist import (NodeStore, PersistedNode, persisted_node,
                                 rtree_reader)
from repro.storage.buffer import BufferPool
from repro.storage.serializer import decode_node


class PooledNodeStore(NodeStore):
    """A read view of a :class:`NodeStore` fronted by a shared pool.

    Shares the parent store's paged file and offset directory (the
    tree is immutable at serving time); only ``read_node`` changes —
    it consults the pool first, so a hit costs no disk charge and a
    miss is one read and one decode for every later reader.
    """

    def __init__(self, store: NodeStore, pool: BufferPool) -> None:
        super().__init__(store.pfile)
        self.root_page = store.root_page
        self.num_nodes = store.num_nodes
        self.offset_to_page = store.offset_to_page
        self.pool = pool

    def read_node(self, node_offset: int) -> PersistedNode:
        """Fetch and decode a node, through the shared pool."""
        page_id = self.page_of(node_offset)
        decoded = self.pool.get(self.pfile, page_id, reader=rtree_reader,
                                decoder=decode_node)
        return persisted_node(page_id, node_offset, decoded)
