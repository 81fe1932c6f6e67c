"""NodeStore persistence tests."""

import numpy as np
import pytest

from repro.errors import RTreeError
from repro.geometry.aabb import AABB
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.rtree.bulk import str_bulk_load
from repro.rtree.persist import KIND_INTERNAL, KIND_LEAF, NodeStore
from repro.serving.pooled import PooledNodeStore
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.faults import FaultInjector, FaultPlan, FaultRule
from repro.storage.pagedfile import PagedFile
from repro.storage.serializer import NIL


def random_items(n, seed=0):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        lo = rng.uniform(0, 100, 3)
        items.append((AABB(lo, lo + rng.uniform(0.5, 5, 3)), i))
    return items


@pytest.fixture()
def store_and_tree():
    tree = str_bulk_load(random_items(60, seed=1), max_entries=5)
    pf = PagedFile("nodes", disk=DiskModel(), stats=IOStats())
    store = NodeStore(pf)
    store.write_tree(tree, lod_pointers={i: 1000 + i for i in range(60)})
    return store, tree


def test_offsets_are_dfs_preorder(store_and_tree):
    store, tree = store_and_tree
    offsets = [n.node_offset for n in tree.iter_nodes_dfs()]
    assert offsets == list(range(store.num_nodes))
    assert tree.root.node_offset == 0


def test_roundtrip_preserves_structure(store_and_tree):
    store, tree = store_and_tree
    for node in tree.iter_nodes_dfs():
        persisted = store.read_node(node.node_offset)
        assert persisted.is_leaf == node.is_leaf
        assert persisted.level == node.level
        assert len(persisted.entries) == node.num_entries
        for entry, (mbr, target, lod_ptr) in zip(node.entries,
                                                 persisted.entries):
            assert np.allclose(mbr[:3], entry.mbr.lo, rtol=1e-5, atol=1e-3)
            if entry.is_leaf_entry:
                assert target == entry.object_id
                assert lod_ptr == 1000 + entry.object_id
            else:
                assert target == entry.child.node_offset
                assert lod_ptr == NIL


def test_read_charges_one_page(store_and_tree):
    store, _tree = store_and_tree
    store.pfile.stats.reset()
    store.read_node(0)
    assert store.pfile.stats.reads == 1


def test_read_root(store_and_tree):
    """The root is written first: it is the node at offset 0."""
    store, tree = store_and_tree
    root = store.read_node(0)
    assert root.node_offset == 0
    assert root.kind == (KIND_LEAF if tree.root.is_leaf else KIND_INTERNAL)


def test_unknown_offset_rejected(store_and_tree):
    store, _tree = store_and_tree
    with pytest.raises(RTreeError):
        store.read_node(10_000)


def test_unwritten_store_rejects_root():
    pf = PagedFile("empty", disk=DiskModel(), stats=IOStats())
    with pytest.raises(RTreeError):
        NodeStore(pf).read_node(0)


def test_children_reachable_by_offset(store_and_tree):
    store, _tree = store_and_tree
    seen = set()
    stack = [0]
    while stack:
        offset = stack.pop()
        seen.add(offset)
        node = store.read_node(offset)
        if not node.is_leaf:
            stack.extend(target for _mbr, target, _ptr in node.entries)
    assert seen == set(range(store.num_nodes))


def all_stores(store):
    """The plain store and its pool-fronted view."""
    return {"plain": store,
            "pooled": PooledNodeStore(store, BufferPool(8, name="t-nodes"))}


def test_three_stores_return_equal_nodes(store_and_tree):
    """Plain and pooled reads agree field for field, on a cold pool and
    again when the pooled page's decoded form is reused."""
    store, _tree = store_and_tree
    stores = all_stores(store)
    for _pass in range(2):
        for offset in range(store.num_nodes):
            plain = stores["plain"].read_node(offset)
            other = stores["pooled"].read_node(offset)
            assert other is not plain
            for field in ("page_id", "kind", "level", "node_offset",
                          "targets", "lod_ptrs"):
                assert getattr(other, field) == getattr(plain, field), \
                    (offset, field)
            assert np.array_equal(other.mbrs, plain.mbrs)
            assert other.is_leaf == plain.is_leaf
            assert all(isinstance(t, int) for t in other.targets)


@pytest.mark.parametrize("name", ["plain", "pooled"])
def test_every_store_rejects_unknown_offset(store_and_tree, name):
    store, _tree = store_and_tree
    with pytest.raises(RTreeError, match="unknown node offset"):
        all_stores(store)[name].read_node(10_000)


@pytest.mark.parametrize("name", ["plain", "pooled"])
def test_every_store_rejects_a_page_holding_another_node(store_and_tree,
                                                         name):
    """The stored-offset check is made per read — also on a pool hit,
    where the decoded page is reused rather than decoded again."""
    store, _tree = store_and_tree
    victim = all_stores(store)[name]
    assert victim.read_node(2).node_offset == 2      # warms the pool
    store.offset_to_page[1], store.offset_to_page[2] = \
        store.offset_to_page[2], store.offset_to_page[1]
    for offset in (1, 2):
        with pytest.raises(RTreeError, match="node offset mismatch"):
            victim.read_node(offset)


@pytest.mark.parametrize("name", ["plain", "pooled"])
def test_every_store_attributes_a_miss_to_pageio(store_and_tree, name):
    """A node read that reaches the disk is a ``pageio`` read of the
    rtree component, whichever store issues it; a pool hit is none."""
    store, _tree = store_and_tree
    with use_registry(MetricsRegistry()) as registry:
        victim = all_stores(store)[name]
        victim.read_node(0)
        assert registry.value(names.PAGEIO_READS, component="rtree") == 1
        victim.read_node(0)          # only the plain store reads again
        assert registry.value(names.PAGEIO_READS, component="rtree") \
            == (2 if name == "plain" else 1)


@pytest.mark.parametrize("name", ["plain", "pooled"])
def test_every_store_survives_one_transient_read_error(store_and_tree,
                                                       name):
    store, _tree = store_and_tree
    with use_registry(MetricsRegistry()) as registry:
        victim = all_stores(store)[name]
        injector = FaultInjector(FaultPlan("one-read-error", (
            FaultRule("read-error", rate=1.0, times=1),)), seed=0)
        injector.install(store.pfile)
        try:
            assert victim.read_node(0).node_offset == 0
        finally:
            injector.uninstall()
        assert injector.injected == {"read-error": 1}
        assert registry.value(names.PAGEIO_RETRIES,
                              file=store.pfile.name) == 1
