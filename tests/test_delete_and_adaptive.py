"""R-tree deletion."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry.aabb import AABB
from repro.rtree.delete import delete, delete_by_id
from repro.rtree.tree import RTree


def random_items(n, seed=0):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        lo = rng.uniform(0, 100, 3)
        items.append((AABB(lo, lo + rng.uniform(0.5, 5, 3)), i))
    return items


def build(items, max_entries=5):
    tree = RTree(max_entries=max_entries)
    for mbr, oid in items:
        tree.insert(mbr, oid)
    return tree


# -- deletion --------------------------------------------------------------

def test_delete_removes_entry():
    items = random_items(50, seed=1)
    tree = build(items)
    mbr, oid = items[13]
    assert delete(tree, mbr, oid)
    assert tree.size == 49
    assert oid not in tree.window_query(mbr)
    tree.check_invariants()


def test_delete_missing_returns_false():
    items = random_items(10, seed=2)
    tree = build(items)
    assert not delete(tree, AABB((500, 500, 500), (501, 501, 501)), 999)
    assert tree.size == 10


def test_delete_all_one_by_one():
    items = random_items(40, seed=3)
    tree = build(items)
    for mbr, oid in items:
        assert delete(tree, mbr, oid)
    assert tree.size == 0
    everything = AABB((-1e6, -1e6, -1e6), (1e6, 1e6, 1e6))
    assert tree.window_query(everything) == []


def test_delete_condense_preserves_remaining():
    """Deleting enough entries to underflow nodes must not lose others."""
    items = random_items(60, seed=4)
    tree = build(items, max_entries=4)
    removed = set()
    for mbr, oid in items[::2]:
        assert delete(tree, mbr, oid)
        removed.add(oid)
    tree.check_invariants()
    everything = AABB((-1e6, -1e6, -1e6), (1e6, 1e6, 1e6))
    remaining = sorted(tree.window_query(everything))
    assert remaining == sorted(oid for _m, oid in items
                               if oid not in removed)


def test_delete_shortens_root():
    items = random_items(30, seed=5)
    tree = build(items, max_entries=4)
    height_before = tree.height
    for mbr, oid in items[:25]:
        delete(tree, mbr, oid)
    tree.check_invariants()
    assert tree.height <= height_before


def test_delete_by_id():
    items = random_items(20, seed=6)
    tree = build(items)
    assert delete_by_id(tree, 7)
    assert not delete_by_id(tree, 7)
    assert tree.size == 19


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=5, max_value=40))
@settings(max_examples=15, deadline=None)
def test_delete_property(seed, n):
    items = random_items(n, seed=seed)
    tree = build(items, max_entries=4)
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(n)
    kill = set(order[:n // 2].tolist())
    for index in order[:n // 2]:
        mbr, oid = items[index]
        assert delete(tree, mbr, oid)
    tree.check_invariants()
    everything = AABB((-1e6, -1e6, -1e6), (1e6, 1e6, 1e6))
    assert sorted(tree.window_query(everything)) == sorted(
        oid for i, (_m, oid) in enumerate(items) if i not in kill)
