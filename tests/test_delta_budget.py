"""DeltaSearch cache-budget behaviour, incl. property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.delta import DeltaSearch
from repro.core.search import HDoVSearch
from repro.errors import HDoVError

#: Every DeltaSearch operation in this module also checks the running
#: resident-bytes total against the recomputed sum (see conftest).
pytestmark = pytest.mark.usefixtures("delta_totals_checked")


def busiest_cells(env, limit=6):
    return sorted(env.grid.cell_ids(),
                  key=lambda c: -env.visibility.cell(c).num_visible)[:limit]


def make_delta(env, budget):
    search = HDoVSearch(env, "indexed-vertical", fetch_models=False)
    return DeltaSearch(search, cache_budget_bytes=budget)


def test_negative_budget_rejected(env):
    with pytest.raises(HDoVError):
        make_delta(env, -1)


def test_current_result_never_evicted(env):
    """Even a zero budget keeps the current answer resident (only
    off-screen entries are evictable)."""
    delta = make_delta(env, 0)
    cell = busiest_cells(env)[0]
    result = delta.query_cell(cell, eta=0.0)
    assert delta.resident_count == result.num_results
    assert delta.resident_bytes == result.total_model_bytes


def test_budget_bounds_offscreen_growth(env):
    cells = busiest_cells(env)
    budget = 50_000
    delta = make_delta(env, budget)
    peak_current = 0
    for cell in cells:
        result = delta.query_cell(cell, eta=0.0)
        peak_current = max(peak_current, result.total_model_bytes)
        # Resident never exceeds budget plus the un-evictable current
        # answer set.
        assert delta.resident_bytes <= budget + result.total_model_bytes
    assert delta.evictions > 0 or delta.resident_bytes <= budget


def test_unbounded_budget_never_evicts(env):
    delta = make_delta(env, None)
    for cell in busiest_cells(env):
        delta.query_cell(cell, eta=0.0)
    assert delta.evictions == 0


def test_tight_budget_forces_refetch_on_return(env):
    """With a tight budget, revisiting an evicted cell re-fetches it;
    with an unbounded cache the revisit is free."""
    cells = busiest_cells(env, limit=2)

    bounded = make_delta(env, 0)           # nothing survives off-screen
    bounded.query_cell(cells[0], eta=0.0)
    after_first = bounded.fetches
    bounded.query_cell(cells[1], eta=0.0)
    bounded.query_cell(cells[0], eta=0.0)  # must refetch
    assert bounded.fetches > after_first + 1

    unbounded = make_delta(env, None)
    unbounded.query_cell(cells[0], eta=0.0)
    unbounded.query_cell(cells[1], eta=0.0)
    fetches = unbounded.fetches
    unbounded.query_cell(cells[0], eta=0.0)
    assert unbounded.fetches == fetches    # revisit free


@given(budget=st.integers(min_value=0, max_value=500_000))
@settings(max_examples=10, deadline=None)
def test_budget_invariant_property(small_env, budget):
    small_env.reset_stats()
    delta = make_delta(small_env, budget)
    cells = busiest_cells(small_env)
    for cell in cells:
        result = delta.query_cell(cell, eta=0.0)
        # The budget bounds the *off-screen* bytes; entries serving the
        # current answer are never evicted (and may be resident at finer
        # detail than this query required).
        live_objects = {o.object_id for o in result.objects}
        live_internals = {i.node_offset for i in result.internals}
        offscreen = (
            sum(delta._objects[oid][1] for oid in delta._objects
                if oid not in live_objects)
            + sum(delta._internals[off][1] for off in delta._internals
                  if off not in live_internals))
        assert offscreen <= budget
        # Correctness never degrades: the answer always matches the
        # visibility table.
        assert result.object_ids() == \
            small_env.visibility.cell(cell).visible_ids()
