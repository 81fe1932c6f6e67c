"""Naive and REVIEW baseline tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.naive import NaiveCellList
from repro.baselines.review import DistanceLODPolicy, ReviewSystem
from repro.errors import HDoVError, WalkthroughError
from repro.visibility.dov import VisibilityTable

#: Every resident-set operation also checks the running byte total
#: against the recomputed sum (see conftest).
pytestmark = pytest.mark.usefixtures("delta_totals_checked")


@pytest.fixture(scope="module")
def naive(small_env):
    return NaiveCellList(small_env)


def busiest_cell(env):
    return max(env.grid.cell_ids(),
               key=lambda c: env.visibility.cell(c).num_visible)


# -- naive -------------------------------------------------------------------

def test_naive_returns_visible_set(env, naive):
    cell = busiest_cell(env)
    result = naive.query_cell(cell)
    assert result.object_ids() == env.visibility.cell(cell).visible_ids()


def test_naive_dov_values_roundtrip(env, naive):
    cell = busiest_cell(env)
    result = naive.query_cell(cell)
    truth = env.visibility.cell(cell)
    for oid, dov in result.objects:
        assert dov == pytest.approx(truth.get(oid), abs=1e-6)


def test_naive_reads_run_sequentially(env, naive):
    cell = busiest_cell(env)
    env.reset_stats()
    naive.reset_io_head()
    result = naive.query_cell(cell)
    light = env.light_stats
    assert light.reads == result.list_pages_read
    assert light.seeks == 1      # one seek, rest sequential


def test_naive_fetches_models(env, naive):
    cell = busiest_cell(env)
    env.reset_stats()
    result = naive.query_cell(cell)
    assert env.heavy_stats.total_ios > 0
    assert result.total_model_bytes > 0


def test_naive_empty_cell(env):
    """A fully hidden cell keeps one empty page: its query reads that
    page and answers nothing.  The busiest cell is hidden on top of any
    the scene has, so the case never goes untested."""
    hidden = busiest_cell(env)
    table = VisibilityTable(env.visibility.num_cells)
    for cell in env.visibility.cells():
        if cell.cell_id != hidden:
            table.put(cell)
    naive = NaiveCellList(replace(env, visibility=table))
    empty_cells = [c for c in env.grid.cell_ids()
                   if table.cell(c).num_visible == 0]
    assert hidden in empty_cells
    for cell_id in empty_cells:
        env.reset_stats()
        result = naive.query_cell(cell_id)
        assert result.num_results == 0
        assert result.list_pages_read == 1
        assert env.light_stats.reads == 1


def test_naive_bad_cell(env, naive):
    with pytest.raises(HDoVError):
        naive.query_cell(10 ** 6)


def test_naive_query_point(env, naive):
    cell = busiest_cell(env)
    point = env.grid.cell_center(cell)
    assert naive.query_point(point).object_ids() == \
        naive.query_cell(cell).object_ids()


# -- distance LoD policy ----------------------------------------------------

def test_distance_policy_levels():
    policy = DistanceLODPolicy(thresholds=(10.0, 20.0, 30.0))
    assert policy.fraction_for_distance(5.0) == 1.0
    assert policy.fraction_for_distance(15.0) == pytest.approx(2 / 3)
    assert policy.fraction_for_distance(25.0) == pytest.approx(1 / 3)
    assert policy.fraction_for_distance(100.0) == 0.0
    with pytest.raises(WalkthroughError):
        policy.fraction_for_distance(-1.0)


def test_distance_policy_single_level():
    policy = DistanceLODPolicy(thresholds=())
    assert policy.fraction_for_distance(1e9) == 1.0


# -- REVIEW -------------------------------------------------------------------

def test_review_returns_window_contents(env):
    review = ReviewSystem(env, box_size=300.0)
    point = env.grid.cell_center(busiest_cell(env))
    result = review.query(point)
    box = review.query_box_at(point)
    expected = sorted(env.tree.window_query(box))
    assert result.object_ids == expected


def test_review_includes_hidden_objects(env):
    """The spatial method's waste: it retrieves objects the viewer
    cannot see."""
    review = ReviewSystem(env, box_size=400.0)
    cell = busiest_cell(env)
    point = env.grid.cell_center(cell)
    result = review.query(point)
    visible = set(env.visibility.cell(cell).visible_ids())
    hidden_fetched = [oid for oid in result.object_ids
                      if oid not in visible]
    assert hidden_fetched       # at least one invisible object fetched


def test_review_misses_far_visible_objects(env):
    """The spatial method's shortsightedness (Figure 11)."""
    review = ReviewSystem(env, box_size=120.0)
    missed_any = False
    for cell in env.grid.cell_ids():
        visible = set(env.visibility.cell(cell).visible_ids())
        if not visible:
            continue
        point = env.grid.cell_center(cell)
        result = review.query(point)
        if visible - set(result.object_ids):
            missed_any = True
            break
    assert missed_any


def test_review_complement_search_skips_cached(env):
    review = ReviewSystem(env, box_size=300.0)
    point = env.grid.cell_center(busiest_cell(env))
    first = review.query(point)
    assert sorted(first.fetched_ids) == first.object_ids
    second = review.query(point + np.array([1.0, 0.0, 0.0]))
    # Nearly identical box: almost everything served from cache.
    assert len(second.fetched_ids) < len(second.object_ids) + 1
    assert review.resident.skipped > 0


def test_review_frame_requery_hysteresis(env):
    review = ReviewSystem(env, box_size=200.0, requery_fraction=0.5)
    point = env.grid.cell_center(busiest_cell(env))
    _result, queried = review.frame(point)
    assert queried
    _result, queried = review.frame(point + np.array([10.0, 0, 0]))
    assert not queried          # within the 50 m slack
    _result, queried = review.frame(point + np.array([80.0, 0, 0]))
    assert queried
    assert review.queries_issued == 2


def test_review_cache_budget_evicts_farthest(env):
    review = ReviewSystem(env, box_size=400.0, cache_budget_bytes=1)
    point = env.grid.cell_center(busiest_cell(env))
    review.query(point)
    # Budget of 1 byte: everything evictable is evicted.
    assert review.resident_bytes <= max(
        (env.objects[o].bytes_for_fraction(1.0)
         for o in env.objects), default=0)
    assert review.resident_count <= 1


def test_review_charges_node_and_model_io(env):
    review = ReviewSystem(env, box_size=300.0)
    env.reset_stats()
    point = env.grid.cell_center(busiest_cell(env))
    result = review.query(point)
    assert result.nodes_read > 0
    assert env.light_stats.total_ios >= result.nodes_read
    assert env.heavy_stats.total_ios > 0


def test_review_validation(env):
    with pytest.raises(WalkthroughError):
        ReviewSystem(env, box_size=0.0)
    with pytest.raises(WalkthroughError):
        ReviewSystem(env, box_size=100.0, requery_fraction=2.0)
