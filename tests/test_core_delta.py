"""Delta search tests: temporal coherence and memory accounting."""

import numpy as np
import pytest

from repro.baselines.review import ReviewSystem
from repro.core.delta import DeltaSearch
from repro.core.search import HDoVSearch
from repro.errors import HDoVError

#: Every DeltaSearch operation in this module also checks the running
#: resident-bytes total against the recomputed sum (see conftest).
pytestmark = pytest.mark.usefixtures("delta_totals_checked")


def make_delta(env, eta_scheme="indexed-vertical"):
    search = HDoVSearch(env, eta_scheme, fetch_models=False)
    return DeltaSearch(search)


def busiest_cells(env, limit=4):
    return sorted(env.grid.cell_ids(),
                  key=lambda c: -env.visibility.cell(c).num_visible)[:limit]


def test_requires_fetch_models_false(env):
    with pytest.raises(HDoVError):
        DeltaSearch(HDoVSearch(env, "indexed-vertical", fetch_models=True))


def test_repeat_query_fetches_nothing(env):
    delta = make_delta(env)
    cell = busiest_cells(env)[0]
    delta.query_cell(cell, eta=0.0)
    env.reset_stats()
    delta.query_cell(cell, eta=0.0)
    assert env.heavy_stats.total_ios == 0       # all resident
    assert env.light_stats.total_ios > 0        # traversal still runs


def test_delta_result_matches_full_search(env):
    """Union semantics: a delta query returns the same answer set a
    from-scratch search would."""
    delta = make_delta(env)
    fresh = HDoVSearch(env, "indexed-vertical", fetch_models=False)
    cells = busiest_cells(env)
    for cell in cells:
        via_delta = delta.query_cell(cell, eta=0.002)
        fresh.scheme.current_cell = None
        direct = fresh.query_cell(cell, eta=0.002)
        assert via_delta.object_ids() == direct.object_ids()


def test_skip_counter_grows_on_overlap(env):
    delta = make_delta(env)
    cells = busiest_cells(env, limit=2)
    delta.query_cell(cells[0], eta=0.0)
    fetched_first = delta.fetches
    delta.query_cell(cells[0], eta=0.0)
    assert delta.fetches == fetched_first
    assert delta.skipped >= fetched_first


def test_resident_bytes_track_result(env):
    """The evicting mode of the resident set is REVIEW's: after a query
    it holds exactly the answer."""
    review = ReviewSystem(env, box_size=300.0)
    result = review.query(env.grid.cell_center(busiest_cells(env)[0]))
    assert result.num_results > 0
    assert review.resident_count == result.num_results
    assert review.resident_bytes == result.total_model_bytes


def test_evicting_mode_refetches_on_return(env):
    review = ReviewSystem(env, box_size=100.0)
    here = env.grid.cell_center(busiest_cells(env)[0])
    there = max((env.grid.cell_center(c) for c in env.grid.cell_ids()),
                key=lambda p: float(np.linalg.norm(p - here)))
    first = review.query(here)
    assert first.fetched_ids
    away = review.query(there)              # disjoint box: drops them all
    assert not set(away.object_ids) & set(first.object_ids)
    back = review.query(here)               # must refetch dropped models
    assert sorted(back.fetched_ids) == first.object_ids


def test_caching_mode_free_on_return(env):
    delta = make_delta(env)
    cells = busiest_cells(env, limit=2)
    delta.query_cell(cells[0], eta=0.0)
    delta.query_cell(cells[1], eta=0.0)
    fetches = delta.fetches
    delta.query_cell(cells[0], eta=0.0)
    assert delta.fetches == fetches


def test_upgrade_fetches_when_detail_rises(env):
    """A resident coarse representation is refetched when a later query
    needs more detail (higher fraction)."""
    delta = make_delta(env)
    cell = busiest_cells(env)[0]
    # eta large: internal LoDs at low fractions and/or coarse retrieval.
    delta.query_cell(cell, eta=0.05)
    fetches_before = delta.fetches
    result = delta.query_cell(cell, eta=0.0)   # full detail now
    # Objects that were previously covered by internals must be fetched.
    assert delta.fetches > fetches_before
    assert result.object_ids() == \
        env.visibility.cell(cell).visible_ids()


def test_clear_resets_state(env):
    delta = make_delta(env)
    delta.query_cell(busiest_cells(env)[0], eta=0.0)
    delta.clear()
    assert delta.resident_bytes == 0
    assert delta.resident_count == 0
