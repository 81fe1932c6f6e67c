"""V-page instantiation: the Section 3.2 attributes as invariants."""

import pytest

from repro.core.vpage import (check_vpage_invariants, instantiate_cell,
                              instantiate_cells)
from repro.errors import HDoVError
from repro.geometry.aabb import AABB
from repro.rtree.bulk import str_bulk_load
from repro.visibility.dov import CellVisibility, aggregate_upward


def grid_tree(n=30, max_entries=4):
    items = [(AABB((i * 2.0, 0, 0), (i * 2.0 + 1, 1, 1)), i)
             for i in range(n)]
    tree = str_bulk_load(items, max_entries=max_entries)
    for offset, node in enumerate(tree.iter_nodes_dfs()):
        node.node_offset = offset
    return tree


def test_leaf_ventries_mirror_object_dov():
    tree = grid_tree(8, max_entries=8)      # single leaf-root
    vis = CellVisibility(0, dov={0: 0.5, 3: 0.25})
    cell = instantiate_cell(tree, vis)
    ventries = cell.ventries(0)
    assert len(ventries) == 8
    by_oid = {e.object_id: ventries[i]
              for i, e in enumerate(tree.root.entries)}
    assert by_oid[0] == (0.5, 1)
    assert by_oid[3] == (0.25, 1)
    assert by_oid[1] == (0.0, 0)


def test_internal_entry_sums_children():
    tree = grid_tree(30)
    vis = CellVisibility(0, dov={0: 0.1, 1: 0.2, 29: 0.05})
    cell = instantiate_cell(tree, vis)
    check_vpage_invariants(tree, cell)
    root_entries = cell.ventries(tree.root.node_offset)
    total_dov = sum(d for d, _ in root_entries)
    assert total_dov == pytest.approx(0.35)
    total_nvo = sum(n for _, n in root_entries)
    assert total_nvo == 3


def test_invisible_nodes_have_no_vpage():
    tree = grid_tree(30)
    vis = CellVisibility(0, dov={0: 0.3})    # only object 0 visible
    cell = instantiate_cell(tree, vis)
    visible_offsets = set(cell.pages)
    # The root and the spine down to object 0's leaf are visible.
    assert tree.root.node_offset in visible_offsets
    # Every visible node has at least one visible entry (attribute 3).
    for offset in visible_offsets:
        assert any(d > 0 for d, _ in cell.ventries(offset))
    # Most nodes are invisible.
    total_nodes = sum(1 for _ in tree.iter_nodes_dfs())
    assert len(visible_offsets) < total_nodes


def test_all_hidden_cell_is_empty():
    tree = grid_tree(10)
    cell = instantiate_cell(tree, CellVisibility(0))
    assert len(cell.pages) == 0


def test_dov_clamped_to_one():
    tree = grid_tree(8, max_entries=4)
    vis = CellVisibility(0, dov={i: 0.9 for i in range(8)})
    cell = instantiate_cell(tree, vis)
    check_vpage_invariants(tree, cell)
    for d, _n in cell.ventries(tree.root.node_offset):
        assert d <= 1.0


def test_visible_offsets_dfs_sorted():
    tree = grid_tree(30)
    vis = CellVisibility(0, dov={i: 0.01 for i in range(0, 30, 3)})
    cell = instantiate_cell(tree, vis)
    offsets = cell.visible_offsets_dfs()
    assert offsets == sorted(offsets)


def test_ventries_for_invisible_node_raises():
    tree = grid_tree(10)
    cell = instantiate_cell(tree, CellVisibility(0, dov={0: 0.5}))
    invisible = [n.node_offset for n in tree.iter_nodes_dfs()
                 if not cell.is_visible(n.node_offset)]
    assert invisible
    with pytest.raises(HDoVError):
        cell.ventries(invisible[0])


def test_unassigned_offsets_rejected():
    items = [(AABB((0, 0, 0), (1, 1, 1)), 0)]
    tree = str_bulk_load(items)
    with pytest.raises(HDoVError):
        instantiate_cell(tree, CellVisibility(0, dov={0: 0.5}))


def test_invariant_checker_detects_corruption():
    tree = grid_tree(30)
    vis = CellVisibility(0, dov={0: 0.1, 5: 0.2})
    cell = instantiate_cell(tree, vis)
    # Corrupt an internal entry's DoV.
    root_ventries = cell.pages[tree.root.node_offset]
    for i, (d, n) in enumerate(root_ventries):
        if d > 0:
            root_ventries[i] = (d + 0.05, n)
            break
    with pytest.raises(HDoVError):
        check_vpage_invariants(tree, cell)


def full_recursion_pages(node, visibility, pages):
    """Section 3.2 over *every* node, no subtree skipped: the reference
    for :func:`instantiate_cell`'s early exit."""
    ventries = []
    for entry in node.entries:
        if node.is_leaf:
            dov = visibility.get(entry.object_id)
            ventries.append((dov, 1 if dov > 0.0 else 0))
        else:
            child_sum, child_nvo = full_recursion_pages(entry.child,
                                                        visibility, pages)
            ventries.append((aggregate_upward([child_sum]), child_nvo))
    if any(d > 0.0 for d, _ in ventries):
        pages[node.node_offset] = ventries
    return (min(sum(d for d, _ in ventries), 1.0),
            sum(n for _, n in ventries))


@pytest.mark.parametrize("tree", [grid_tree(8, max_entries=8), grid_tree(10),
                                  grid_tree(30)],
                         ids=["leaf-root", "10", "30"])
def test_subtree_skip_equals_full_recursion(tree):
    cells = [CellVisibility(0),                          # sees nothing
             CellVisibility(1, dov={0: 0.5}),
             CellVisibility(2, dov={0: 0.1, 1: 0.2, 7: 0.05}),
             CellVisibility(3, dov={i: 0.9 for i in range(8)}),
             CellVisibility(4, dov={3: 1e-300, 6: 0.25}),
             CellVisibility(5, dov={99: 0.5})]           # not in the tree
    for cell, vpages in zip(cells, instantiate_cells(tree, cells)):
        expected = {}
        full_recursion_pages(tree.root, cell, expected)
        assert vpages.cell_id == cell.cell_id
        assert vpages.pages == expected
        assert list(vpages.pages) == list(expected)      # insertion order
        assert instantiate_cell(tree, cell).pages == expected


def test_subtree_skip_equals_full_recursion_on_environment(env):
    for cid in list(env.grid.cell_ids())[:10]:
        expected = {}
        full_recursion_pages(env.tree.root, env.visibility.cell(cid),
                             expected)
        assert env.cell_vpages[cid].pages == expected
        assert list(env.cell_vpages[cid].pages) == list(expected)


def test_environment_cells_satisfy_invariants(env):
    for cell in env.cell_vpages[:10]:
        check_vpage_invariants(env.tree, cell)


def test_environment_eq7_bound(env):
    """N_vnode <= N_vobj * levels (paper eq. 7)."""
    levels = env.tree.height
    for cell_vp, cid in zip(env.cell_vpages, range(env.grid.num_cells)):
        n_vobj = env.visibility.cell(cid).num_visible
        assert len(cell_vp.pages) <= max(n_vobj, 0) * levels + 1
