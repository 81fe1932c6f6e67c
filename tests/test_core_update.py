"""Incremental environment updates (object removal)."""

import pytest

from repro.constants import SIZE_INTEGER, SIZE_POINTER
from repro.core.hdov_tree import HDoVConfig, build_environment
from repro.core.search import HDoVSearch
from repro.core.update import affected_cells, remove_object
from repro.core.vpage import check_vpage_invariants
from repro.errors import HDoVError
from repro.scene.city import CityParams, generate_city
from repro.visibility.cells import CellGrid


@pytest.fixture()
def fresh_env():
    """A private small environment (updates mutate it)."""
    scene = generate_city(CityParams(blocks_x=4, blocks_y=4, seed=23,
                                     bunnies_per_block=3,
                                     building_fraction=0.5,
                                     bunny_subdivisions=2))
    grid = CellGrid.covering(scene.bounds(), cell_size=120.0)
    return build_environment(scene, grid,
                             HDoVConfig(dov_resolution=12,
                                        schemes=("indexed-vertical",)))


def most_visible_object(env):
    counts = {}
    for cell_id in env.grid.cell_ids():
        for oid in env.visibility.cell(cell_id).visible_ids():
            counts[oid] = counts.get(oid, 0) + 1
    return max(counts, key=counts.get)


def test_affected_cells_are_where_visible(fresh_env):
    oid = most_visible_object(fresh_env)
    cells = affected_cells(fresh_env, oid)
    assert cells
    for cell_id in cells:
        assert fresh_env.visibility.cell(cell_id).get(oid) > 0
    for cell_id in fresh_env.grid.cell_ids():
        if cell_id not in cells:
            assert fresh_env.visibility.cell(cell_id).get(oid) == 0


def test_remove_object_disappears_from_queries(fresh_env):
    env = fresh_env
    oid = most_visible_object(env)
    touched = remove_object(env, oid)
    assert touched
    search = HDoVSearch(env)
    for cell_id in env.grid.cell_ids():
        result = search.query_cell(cell_id, eta=0.0)
        assert oid not in result.object_ids()


def test_remove_object_can_reveal_occluded(fresh_env):
    """Removing a big occluder can only grow other objects' DoV."""
    env = fresh_env
    oid = most_visible_object(env)
    cells = affected_cells(env, oid)
    before = {cell_id: dict(env.visibility.cell(cell_id).dov)
              for cell_id in cells}
    remove_object(env, oid)
    for cell_id in cells:
        after = env.visibility.cell(cell_id).dov
        for other, old_value in before[cell_id].items():
            if other == oid:
                continue
            # Occlusion can only decrease (DoV rise) when an object
            # disappears; allow tiny sampling jitter.
            assert after.get(other, 0.0) >= old_value - 1e-9


def test_remove_object_updated_cells_match_table(fresh_env):
    env = fresh_env
    oid = most_visible_object(env)
    remove_object(env, oid)
    search = HDoVSearch(env)
    for cell_id in env.grid.cell_ids():
        result = search.query_cell(cell_id, eta=0.0)
        assert result.object_ids() == \
            env.visibility.cell(cell_id).visible_ids()


def test_remove_object_preserves_vpage_invariants(fresh_env):
    env = fresh_env
    oid = most_visible_object(env)
    remove_object(env, oid)
    for cell_vp in env.cell_vpages:
        check_vpage_invariants(env.tree, cell_vp)


def test_remove_object_tree_valid(fresh_env):
    env = fresh_env
    oid = most_visible_object(env)
    remove_object(env, oid)
    env.tree.check_invariants()
    assert env.node_store.num_nodes == env.tree.num_nodes


def test_remove_two_objects(fresh_env):
    env = fresh_env
    first = most_visible_object(env)
    remove_object(env, first)
    second = most_visible_object(env)
    remove_object(env, second)
    search = HDoVSearch(env)
    busiest = max(env.grid.cell_ids(),
                  key=lambda c: env.visibility.cell(c).num_visible)
    ids = search.query_cell(busiest, eta=0.0).object_ids()
    assert first not in ids and second not in ids
    # Regression: the second removal's estimator was built from the
    # append-only scene, so the first object came back as an occluder.
    for cell_id in env.grid.cell_ids():
        assert first not in env.visibility.cell(cell_id).visible_ids()


def test_remove_unknown_object(fresh_env):
    with pytest.raises(HDoVError):
        remove_object(fresh_env, 10 ** 6)


def test_remove_requires_indexed_vertical(small_scene, small_grid):
    env = build_environment(
        small_scene, small_grid,
        HDoVConfig(dov_resolution=8, schemes=("vertical",)))
    with pytest.raises(HDoVError):
        remove_object(env, 0, scheme_name="vertical")


def test_storage_figures_follow_an_update(fresh_env):
    """Regression: the update repointed the directory behind the
    scheme's back, so Table 2's index bytes and eq. 7's average N_vnode
    kept the pre-update pair count."""
    env = fresh_env
    scheme = env.scheme()
    for _ in range(2):
        remove_object(env, most_visible_object(env))
    live_pairs = sum(len(scheme.cell_pointers(cell_id))
                     for cell_id in env.grid.cell_ids())
    assert live_pairs == sum(cell_vp.num_visible_nodes
                             for cell_vp in env.cell_vpages)
    breakdown = scheme.storage_breakdown()
    assert breakdown.index_bytes == (SIZE_POINTER + SIZE_INTEGER) * live_pairs
    assert breakdown.vpage_bytes == env.config.page_size * live_pairs
    assert scheme.avg_visible_nodes == live_pairs / env.grid.num_cells


def test_update_rewrites_segments_on_shared_index_pages(fresh_env):
    """Index segments share pages; the update read-modify-writes them,
    and afterwards every cell's pairs read back its V-pages — its own
    rewrite did not clobber a neighbour's on the same page."""
    env = fresh_env
    scheme = env.scheme()
    remove_object(env, most_visible_object(env))
    cells_per_page = {}
    for cell_vp in env.cell_vpages:
        first, count, _offset = scheme._segment_span(cell_vp.cell_id)
        assert count == 1
        cells_per_page[first] = cells_per_page.get(first, 0) + 1
        pairs = scheme.cell_pointers(cell_vp.cell_id)
        assert [offset for offset, _ in pairs] == \
            cell_vp.visible_offsets_dfs()
        for offset, pointer in pairs:
            stored_offset, got = scheme.codec.read(pointer, scheme)
            assert stored_offset == offset
            assert [nvo for _, nvo in got] == \
                [nvo for _, nvo in cell_vp.ventries(offset)]
    assert max(cells_per_page.values()) > 1


def test_refused_update_leaves_the_environment_intact():
    """Regression: on a packed build the refusal came only after the
    tree file, ``env.objects`` and the visibility table had been
    rewritten, so every later query failed.  Each refusal must come
    before the first mutation."""
    scene = generate_city(CityParams(blocks_x=3, blocks_y=3, seed=23,
                                     bunnies_per_block=3,
                                     building_fraction=0.5,
                                     bunny_subdivisions=2))
    grid = CellGrid.covering(scene.bounds(), cell_size=120.0)
    env = build_environment(
        scene, grid, HDoVConfig(dov_resolution=12, compress_vpages=True,
                                schemes=("vertical", "indexed-vertical")))

    def selections():
        search = HDoVSearch(env, "indexed-vertical")
        return {cell_id: search.query_cell(cell_id, eta=0.0).object_ids()
                for cell_id in env.grid.cell_ids()}

    before = selections()
    oid = most_visible_object(env)
    refusals = [dict(object_id=oid),                      # packed codec
                dict(object_id=oid, scheme_name="vertical"),
                dict(object_id=10 ** 6)]                  # unknown object
    for kwargs in refusals:
        with pytest.raises(HDoVError):
            remove_object(env, **kwargs)
        assert oid in env.objects
        assert selections() == before
