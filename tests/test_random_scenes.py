"""End-to-end property tests over randomly generated scenes.

Hypothesis drives the *whole pipeline* (scene -> tree -> visibility ->
schemes -> search) on small random box scenes and asserts the
cross-cutting invariants that individual unit tests check in isolation.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines.naive import NaiveCellList
from repro.core.hdov_tree import HDoVConfig, build_environment
from repro.core.search import HDoVSearch
from repro.core.vpage import check_vpage_invariants
from repro.geometry.primitives import box_mesh
from repro.scene.objects import Scene, SceneObject
from repro.simplify.lod_chain import build_lod_chain
from repro.visibility.cells import CellGrid


def random_box_scene(seed: int, n: int) -> Scene:
    rng = np.random.default_rng(seed)
    scene = Scene()
    for i in range(n):
        center = np.array([rng.uniform(10, 190), rng.uniform(10, 190),
                           rng.uniform(2, 20)])
        extent = rng.uniform(2, 25, 3)
        mesh = box_mesh(center, extent)
        chain = build_lod_chain(mesh, num_levels=2, reduction=0.5)
        scene.add(SceneObject(i, chain, category="box"))
    return scene


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       n=st.integers(min_value=3, max_value=25))
@settings(max_examples=8, deadline=None)
def test_pipeline_invariants_on_random_scene(seed, n):
    scene = random_box_scene(seed, n)
    grid = CellGrid.covering(scene.bounds(), cell_size=100.0)
    env = build_environment(
        scene, grid, HDoVConfig(dov_resolution=8,
                                schemes=("indexed-vertical",)))

    env.tree.check_invariants()
    for cell_vp in env.cell_vpages:
        check_vpage_invariants(env.tree, cell_vp)

    search = HDoVSearch(env)
    naive = NaiveCellList(env)
    for cell_id in grid.cell_ids():
        visible = env.visibility.cell(cell_id).visible_ids()
        # eta = 0 equals both the table and the naive baseline.
        result = search.query_cell(cell_id, eta=0.0)
        assert result.object_ids() == visible
        assert naive.query_cell(cell_id).object_ids() == visible
        # Any eta covers every visible object.
        for eta in (0.01, 0.1):
            coarse = search.query_cell(cell_id, eta)
            assert set(visible) <= set(coarse.covered_object_ids())
            # DoVs of direct objects stay in (0, 1].
            for obj in coarse.objects:
                assert 0.0 < obj.dov <= 1.0


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=5, deadline=None)
def test_schemes_agree_on_random_scene(seed):
    scene = random_box_scene(seed, 15)
    grid = CellGrid.covering(scene.bounds(), cell_size=120.0)
    env = build_environment(
        scene, grid,
        HDoVConfig(dov_resolution=8,
                   schemes=("horizontal", "vertical", "indexed-vertical")))
    searches = {name: HDoVSearch(env, name) for name in env.schemes}
    for cell_id in grid.cell_ids():
        answers = set()
        for search in searches.values():
            search.scheme.current_cell = None
            result = search.query_cell(cell_id, eta=0.02)
            answers.add((tuple(result.object_ids()),
                         tuple(sorted(i.node_offset
                                      for i in result.internals))))
        assert len(answers) == 1
