"""Buffer-pool-backed node reads.

The paper's runs cache no tree nodes ("None of the two systems caches
the tree nodes in the queries"), which our default
:class:`~repro.rtree.persist.NodeStore` matches — every node read pays
disk I/O.  :class:`CachedNodeStore` wraps a store with an LRU
:class:`~repro.storage.buffer.BufferPool` so the cache-size ablation
can quantify what that design decision costs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.rtree.persist import (NodeStore, PersistedNode, persisted_node,
                                 rtree_reader)
from repro.storage.buffer import BufferPool
from repro.storage.serializer import decode_node


class CachedNodeStore:
    """Drop-in ``read_node`` provider with an LRU page cache.

    Hits are free (no disk charge); misses read the underlying
    :class:`NodeStore`'s paged file through ``pageio``, retried and
    attributed to the ``rtree`` component like an unpooled node read.
    Exposes the attributes the search layer uses (``num_nodes``,
    ``offset_to_page``, ``root_page``).
    """

    def __init__(self, store: NodeStore, capacity_pages: int) -> None:
        self.store = store
        self.pool = BufferPool(capacity_pages)

    @property
    def num_nodes(self) -> int:
        return self.store.num_nodes

    @property
    def offset_to_page(self) -> Dict[int, int]:
        return self.store.offset_to_page

    @property
    def root_page(self) -> Optional[int]:
        return self.store.root_page

    def read_node(self, node_offset: int) -> PersistedNode:
        page_id = self.store.page_of(node_offset)
        decoded = self.pool.get(self.store.pfile, page_id,
                                reader=rtree_reader, decoder=decode_node)
        return persisted_node(page_id, node_offset, decoded)

    def read_root(self) -> PersistedNode:
        return self.read_node(0)

    @property
    def hit_rate(self) -> float:
        return self.pool.hit_rate

    def __repr__(self) -> str:
        return (f"CachedNodeStore(capacity={self.pool.capacity}, "
                f"hit_rate={self.hit_rate:.2f})")
