"""R-tree tests: splits, insertion invariants, queries vs brute force."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RTreeError
from repro.geometry.aabb import AABB
from repro.rtree.bulk import str_bulk_load
from repro.rtree.entry import Entry
from repro.rtree.split import (ang_tan_linear_split, get_split_algorithm,
                               guttman_linear_split)
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


# -- splits -------------------------------------------------------------------

@pytest.mark.parametrize("split", [guttman_linear_split,
                                   ang_tan_linear_split],
                         ids=["guttman", "ang-tan"])
class TestSplits:
    def test_partition_is_complete(self, split):
        entries = [Entry(mbr=b, object_id=i)
                   for i, b in enumerate(random_boxes(20, seed=1))]
        a, b = split(entries, min_fill=4)
        ids = sorted(e.object_id for e in a + b)
        assert ids == list(range(20))

    def test_min_fill_respected(self, split):
        entries = [Entry(mbr=b, object_id=i)
                   for i, b in enumerate(random_boxes(9, seed=2))]
        a, b = split(entries, min_fill=3)
        assert len(a) >= 3 and len(b) >= 3

    def test_identical_boxes_still_split(self, split):
        same = AABB((0, 0, 0), (1, 1, 1))
        entries = [Entry(mbr=same, object_id=i) for i in range(8)]
        a, b = split(entries, min_fill=3)
        assert len(a) + len(b) == 8
        assert len(a) >= 3 and len(b) >= 3

    def test_too_few_entries_rejected(self, split):
        entries = [Entry(mbr=AABB((0, 0, 0), (1, 1, 1)), object_id=0)]
        with pytest.raises(RTreeError):
            split(entries, min_fill=1)

    def test_infeasible_min_fill_rejected(self, split):
        entries = [Entry(mbr=b, object_id=i)
                   for i, b in enumerate(random_boxes(4, seed=3))]
        with pytest.raises(RTreeError):
            split(entries, min_fill=3)


def test_get_split_algorithm():
    assert get_split_algorithm("guttman") is guttman_linear_split
    with pytest.raises(RTreeError):
        get_split_algorithm("quadratic")


def test_ang_tan_separates_two_clusters():
    left = [Entry(mbr=AABB((x, 0, 0), (x + 1, 1, 1)), object_id=x)
            for x in range(5)]
    right = [Entry(mbr=AABB((x + 100, 0, 0), (x + 101, 1, 1)),
                   object_id=x + 100) for x in range(5)]
    a, b = ang_tan_linear_split(left + right, min_fill=3)
    group_ids = [sorted(e.object_id for e in g) for g in (a, b)]
    assert sorted(group_ids) == [list(range(5)),
                                 [100, 101, 102, 103, 104]]


# -- insertion path --------------------------------------------------------

@pytest.mark.parametrize("split", ["guttman", "ang-tan"])
def test_insert_preserves_invariants(split):
    tree = RTree(max_entries=6, split=split)
    items = [(b, i) for i, b in enumerate(random_boxes(120, seed=4))]
    for mbr, oid in items:
        tree.insert(mbr, oid)
    tree.check_invariants()
    assert tree.size == 120
    assert sorted(tree.all_object_ids()) == list(range(120))
    assert tree.height >= 2


def test_window_query_matches_brute_force():
    tree = RTree(max_entries=6)
    items = [(b, i) for i, b in enumerate(random_boxes(150, seed=5))]
    for mbr, oid in items:
        tree.insert(mbr, oid)
    for seed in range(5):
        rng = np.random.default_rng(seed + 100)
        lo = rng.uniform(0, 80, 3)
        window = AABB(lo, lo + rng.uniform(5, 40, 3))
        assert sorted(tree.window_query(window)) == brute_force(items, window)


def test_on_node_callback_counts_visits():
    tree = RTree(max_entries=4)
    for i, b in enumerate(random_boxes(50, seed=6)):
        tree.insert(b, i)
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
    with pytest.raises(RTreeError):
        RTree(min_fill=0.9)
    with pytest.raises(RTreeError):
        RTree(split="bogus")


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


def test_bulk_load_then_insert():
    items = [(b, i) for i, b in enumerate(random_boxes(60, seed=10))]
    tree = str_bulk_load(items, max_entries=6)
    extra = AABB((200, 200, 200), (201, 201, 201))
    tree.insert(extra, 999)
    tree.check_invariants()
    assert 999 in tree.window_query(AABB((199, 199, 199), (202, 202, 202)))


@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20, deadline=None)
def test_bulk_load_property(n, seed):
    items = [(b, i) for i, b in enumerate(random_boxes(n, seed=seed))]
    tree = str_bulk_load(items, max_entries=5)
    tree.check_invariants()
    everything = AABB((-1e6, -1e6, -1e6), (1e6, 1e6, 1e6))
    assert sorted(tree.window_query(everything)) == list(range(n))
