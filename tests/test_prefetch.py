"""The one prefetcher: :class:`ServingPrefetcher` reading a predicted
cell's segment (and V-pages) into a buffer pool ahead of the flip."""

import numpy as np
import pytest

from repro.errors import WalkthroughError
from repro.serving.prefetch import MAX_VPAGES, ServingPrefetcher
from repro.serving.service import session_env
from repro.storage.buffer import BufferPool
from repro.walkthrough.transition import CellTransitionModel


def busiest_cells(env, limit=3):
    return sorted(env.grid.cell_ids(),
                  key=lambda c: -env.visibility.cell(c).num_visible)[:limit]


def adjacent_cells(env):
    """``(here, target)``: the busiest cell and its busiest neighbour."""
    here = busiest_cells(env)[0]
    target = max(env.grid.neighbors(here),
                 key=lambda c: env.visibility.cell(c).num_visible)
    assert env.cell_vpages[target].num_visible_nodes > 0
    return here, target


def rig(env, scheme_name, *, pool_pages=64):
    """A private pool, a session view's scheme reading through it, and
    a prefetcher issuing into it — what ``ext-prefetch`` and ``repro
    serve --prefetch`` both assemble."""
    pool = BufferPool(pool_pages, name="test-prefetch")
    scheme = session_env(env, pool).scheme(scheme_name)
    return pool, scheme, ServingPrefetcher(pool, env, trigger_fraction=1.0)


def read_ahead(prefetcher, scheme, env, here, target):
    """Have the prefetcher read ``target`` ahead from its neighbour
    ``here``: a learned transition decides the prediction alone."""
    prefetcher.model.record_transition(here, target)
    prefetcher.observe(0, here, env.grid.cell_center(here), scheme)
    prefetcher.issue_round()


@pytest.mark.parametrize("scheme_name", ["vertical", "indexed-vertical"])
def test_prefetched_flip_is_free(env, env_packed, scheme_name):
    for environment in (env, env_packed):
        pool, scheme, prefetcher = rig(environment, scheme_name)
        here, target = adjacent_cells(environment)
        scheme.flip_to_cell(here)
        read_ahead(prefetcher, scheme, environment, here, target)
        assert prefetcher.light_total.reads > 0    # the work happens now
        segment_pages = scheme.prefetch_pages(target)
        assert segment_pages
        useful_before = pool.prefetch_stats()["useful"]
        environment.reset_stats()
        scheme.flip_to_cell(target)
        assert environment.light_stats.reads == 0  # ... so the flip is free
        assert pool.prefetch_stats()["useful"] - useful_before \
            == len(segment_pages)


@pytest.mark.parametrize("scheme_name", ["vertical", "indexed-vertical"])
def test_prefetch_preserves_current_cell_reads(env, env_packed,
                                               scheme_name):
    """Prefetching must not corrupt reads against the current cell."""
    for environment in (env, env_packed):
        _pool, scheme, prefetcher = rig(environment, scheme_name)
        here, target = adjacent_cells(environment)
        scheme.flip_to_cell(here)
        expected = {offset: scheme.ventries(offset)
                    for offset in environment.cell_vpages[here].pages}
        read_ahead(prefetcher, scheme, environment, here, target)
        assert scheme.current_cell == here
        for offset, ventries in expected.items():
            assert scheme.ventries(offset) == ventries


def test_prefetch_then_flip_reads_right_data(env):
    _pool, scheme, prefetcher = rig(env, "indexed-vertical")
    here, target = adjacent_cells(env)
    scheme.flip_to_cell(here)
    read_ahead(prefetcher, scheme, env, here, target)
    scheme.flip_to_cell(target)
    for offset in env.cell_vpages[target].pages:
        got = scheme.ventries(offset)
        expected = env.cell_vpages[target].ventries(offset)
        assert got is not None
        for (dov, nvo), (edov, envo) in zip(got, expected):
            assert nvo == envo
            assert dov == pytest.approx(edov, abs=1e-6)


def test_unused_prefetch_is_harmless(env):
    """A prefetch the viewer never consumes is evicted by demand reads
    and counted ``wasted``, never ``useful``."""
    pool, scheme, prefetcher = rig(env, "indexed-vertical",
                                   pool_pages=1 + MAX_VPAGES)
    here, target = adjacent_cells(env)
    scheme.flip_to_cell(here)
    read_ahead(prefetcher, scheme, env, here, target)
    issued = pool.prefetch_stats()["issued"]
    assert issued > 0
    for elsewhere in busiest_cells(env, limit=6):      # went elsewhere
        if elsewhere == target:
            continue
        scheme.flip_to_cell(elsewhere)
        for offset in env.cell_vpages[elsewhere].pages:
            assert scheme.ventries(offset) is not None
    assert scheme.current_cell != target
    assert pool.prefetch_stats() == {"issued": issued, "useful": 0,
                                     "wasted": issued}


def test_prefetcher_predicts_along_velocity(env):
    pool, scheme, prefetcher = rig(env, "indexed-vertical")
    grid = env.grid
    start = grid.cell_center(busiest_cells(env)[0])
    # First observation: no velocity yet.
    prefetcher.observe(0, grid.cell_of_point(start), start, scheme)
    assert prefetcher.predictions == 0
    # Move straight along +x: the prediction is the cell one lookahead
    # further along, and its segment is what gets read ahead.
    moved = start + np.array([grid.cell_size * 0.6, 0.0, 0.0])
    expected = prefetcher.model.velocity_cell(moved, start)
    prefetcher.observe(0, grid.cell_of_point(moved), moved, scheme)
    prefetcher.issue_round()
    if expected is not None:
        assert expected != grid.cell_of_point(moved)
        assert prefetcher.predictions == 1
        assert all(pool.contains(scheme.index_file, page)
                   for page in scheme.prefetch_pages(expected))
    # Standing still predicts nothing.
    before = prefetcher.predictions
    prefetcher.observe(0, grid.cell_of_point(moved), moved, scheme)
    assert prefetcher.predictions == before


def test_prefetcher_end_to_end_smooths_crossing(env):
    """A predicted crossing pays its flip early; the crossing frame's
    I/O is smaller than without prefetching."""
    grid = env.grid
    here = busiest_cells(env)[0]
    position = grid.cell_center(here)
    # Pick the +x neighbor as the crossing target.
    target = grid.cell_of_point(position
                                + np.array([grid.cell_size, 0.0, 0.0]))
    if target == here:
        pytest.skip("cell at grid edge")

    # Without prefetch: the crossing flip pays reads.
    _pool, scheme, _prefetcher = rig(env, "indexed-vertical")
    scheme.flip_to_cell(here)
    env.reset_stats()
    scheme.flip_to_cell(target)
    cold_reads = env.light_stats.reads
    assert cold_reads > 0

    # With prefetch: read ahead while approaching, crossing free.
    _pool, scheme, prefetcher = rig(env, "indexed-vertical")
    scheme.flip_to_cell(here)
    for step in (0.0, 0.45):
        prefetcher.observe(
            0, here, position + np.array([grid.cell_size * step, 0, 0]),
            scheme)
        prefetcher.issue_round()
    env.reset_stats()
    scheme.flip_to_cell(target)
    assert env.light_stats.reads == 0


def test_observe_counts_only_effective_prefetches(env):
    """The prefetcher's issue counters agree with the pool's: a target
    predicted again while its pages are resident is not read again."""
    pool, scheme, prefetcher = rig(env, "indexed-vertical")
    grid = env.grid
    here = busiest_cells(env)[0]
    start = grid.cell_center(here)
    step = np.array([grid.cell_size * 0.05, 0.0, 0.0])
    # Creep toward the +x boundary: every observation after the first
    # predicts the same neighbor, but its segment is read once.
    for i in range(5):
        prefetcher.observe(0, here, start + i * step, scheme)
        prefetcher.issue_round()
    target = prefetcher.model.velocity_cell(start + step, start)
    assert prefetcher.predictions == (4 if target is not None else 0)
    assert prefetcher.index_pages_issued + prefetcher.vpages_issued \
        == pool.prefetch_stats()["issued"]
    if target is not None:
        assert prefetcher.index_pages_issued \
            == len(scheme.prefetch_pages(target))


def test_prefetcher_validation(env):
    with pytest.raises(WalkthroughError):
        ServingPrefetcher(BufferPool(4), env, trigger_fraction=0.0)


def test_vertical_motion_does_not_change_prediction(env):
    """Regression: speed was computed from the horizontal velocity but
    normalised the full 3D velocity, so vertical motion inflated the
    lookahead step.  The prediction must depend only on the horizontal
    motion: adding a vertical component changes nothing."""
    grid = env.grid
    model = CellTransitionModel(grid, trigger_fraction=0.5)
    start = grid.cell_center(busiest_cells(env)[0])
    step = np.array([grid.cell_size * 0.3, 0.0, 0.0])
    climb = np.array([0.0, 0.0, grid.cell_size * 5.0])
    assert model.predict_from_motion(start, None) is None  # no velocity
    flat_prediction = model.predict_from_motion(start + step, start)
    climbing_prediction = model.predict_from_motion(start + step + climb,
                                                    start)
    assert climbing_prediction == flat_prediction


def test_pure_vertical_motion_predicts_nothing(env):
    grid = env.grid
    model = CellTransitionModel(grid, trigger_fraction=1.0)
    start = grid.cell_center(busiest_cells(env)[0])
    up = start + np.array([0.0, 0.0, grid.cell_size * 3.0])
    assert model.predict_from_motion(up, start) is None
