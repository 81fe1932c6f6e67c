"""R-tree tests: STR-packed invariants, queries vs brute force."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RTreeError
from repro.geometry.aabb import AABB
from repro.rtree.bulk import str_bulk_load
from repro.rtree.tree import RTree


def random_boxes(n, seed=0, span=100.0, size=5.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        lo = rng.uniform(0, span, 3)
        out.append(AABB(lo, lo + rng.uniform(0.1, size, 3)))
    return out


def brute_force(items, window):
    return sorted(oid for mbr, oid in items if mbr.intersects(window))


# -- queries ------------------------------------------------------------------

def test_window_query_matches_brute_force():
    items = [(b, i) for i, b in enumerate(random_boxes(150, seed=5))]
    tree = str_bulk_load(items, max_entries=6)
    for seed in range(5):
        rng = np.random.default_rng(seed + 100)
        lo = rng.uniform(0, 80, 3)
        window = AABB(lo, lo + rng.uniform(5, 40, 3))
        assert sorted(tree.window_query(window)) == brute_force(items, window)


def test_on_node_callback_counts_visits():
    tree = str_bulk_load([(b, i) for i, b in
                          enumerate(random_boxes(50, seed=6))],
                         max_entries=4)
    visits = []
    tree.window_query(AABB((0, 0, 0), (100, 100, 100)),
                      on_node=visits.append)
    assert len(visits) == tree.num_nodes     # full-window visits all


def test_dfs_is_deterministic_preorder():
    tree = str_bulk_load([(b, i) for i, b in
                          enumerate(random_boxes(40, seed=7))],
                         max_entries=4)
    order1 = [id(n) for n in tree.iter_nodes_dfs()]
    order2 = [id(n) for n in tree.iter_nodes_dfs()]
    assert order1 == order2
    nodes = list(tree.iter_nodes_dfs())
    assert nodes[0] is tree.root


def test_constructor_validation():
    with pytest.raises(RTreeError):
        RTree(max_entries=2)


# -- bulk loading ------------------------------------------------------------

def test_bulk_load_invariants_and_completeness():
    items = [(b, i) for i, b in enumerate(random_boxes(200, seed=8))]
    tree = str_bulk_load(items, max_entries=8)
    tree.check_invariants()
    assert tree.size == 200
    assert sorted(tree.all_object_ids()) == list(range(200))


def test_bulk_load_queries_match_brute_force():
    items = [(b, i) for i, b in enumerate(random_boxes(200, seed=9))]
    tree = str_bulk_load(items, max_entries=8)
    window = AABB((10, 10, 10), (60, 60, 60))
    assert sorted(tree.window_query(window)) == brute_force(items, window)


def test_bulk_load_empty_rejected():
    with pytest.raises(RTreeError):
        str_bulk_load([])


def test_bulk_load_single_item():
    tree = str_bulk_load([(AABB((0, 0, 0), (1, 1, 1)), 0)])
    assert tree.height == 1
    assert tree.window_query(AABB((0, 0, 0), (2, 2, 2))) == [0]


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=4, max_value=16),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20, deadline=None)
def test_bulk_load_property(n, max_entries, seed):
    items = [(b, i) for i, b in enumerate(random_boxes(n, seed=seed))]
    tree = str_bulk_load(items, max_entries=max_entries)
    tree.check_invariants()
    everything = AABB((-1e6, -1e6, -1e6), (1e6, 1e6, 1e6))
    assert sorted(tree.window_query(everything)) == list(range(n))
