"""Figure-3 traversal semantics over the shared small environment."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveCellList
from repro.constants import MAXDOV
from repro.core.search import (HDoVSearch, RetrievedInternal,
                               RetrievedObject, SearchResult)
from repro.errors import HDoVError, VisibilityError


def interesting_cells(env, limit=6):
    """Cells with the largest visible sets (street viewpoints)."""
    cells = sorted(env.grid.cell_ids(),
                   key=lambda c: -env.visibility.cell(c).num_visible)
    return cells[:limit]


@pytest.fixture(scope="module")
def naive(small_env):
    return NaiveCellList(small_env)


def test_eta_zero_equals_naive_object_set(env, naive):
    """The degeneration of Figure 7: eta = 0 retrieves exactly the
    naive (cell, list-of-objects) answer."""
    search = HDoVSearch(env, "indexed-vertical")
    for cell_id in interesting_cells(env):
        hdov = search.query_cell(cell_id, eta=0.0)
        base = naive.query_cell(cell_id)
        assert hdov.object_ids() == base.object_ids()
        assert not hdov.internals


def test_eta_zero_objects_match_visibility_table(env):
    search = HDoVSearch(env, "indexed-vertical")
    for cell_id in interesting_cells(env):
        result = search.query_cell(cell_id, eta=0.0)
        assert result.object_ids() == \
            env.visibility.cell(cell_id).visible_ids()


def test_all_schemes_agree(env):
    searches = {name: HDoVSearch(env, name) for name in env.schemes}
    for cell_id in interesting_cells(env, limit=4):
        results = {}
        for name, search in searches.items():
            search.scheme.current_cell = None
            results[name] = search.query_cell(cell_id, eta=0.002)
        reference = results["indexed-vertical"]
        for name, result in results.items():
            assert result.object_ids() == reference.object_ids(), name
            assert ([i.node_offset for i in result.internals]
                    == [i.node_offset for i in reference.internals]), name


def test_covered_objects_superset_of_visible(env):
    """Raising eta never loses coverage: every visible object is either
    retrieved directly or covered by an internal LoD."""
    search = HDoVSearch(env, "indexed-vertical")
    for cell_id in interesting_cells(env):
        visible = set(env.visibility.cell(cell_id).visible_ids())
        for eta in (0.0, 0.001, 0.01, 0.05):
            result = search.query_cell(cell_id, eta)
            covered = set(result.covered_object_ids())
            assert visible <= covered


def test_internal_terminations_only_above_zero_eta(env):
    search = HDoVSearch(env, "indexed-vertical")
    for cell_id in interesting_cells(env):
        assert not search.query_cell(cell_id, 0.0).internals


def test_internal_dov_below_eta(env):
    search = HDoVSearch(env, "indexed-vertical")
    eta = 0.05
    for cell_id in interesting_cells(env):
        result = search.query_cell(cell_id, eta)
        for internal in result.internals:
            assert 0.0 < internal.dov <= eta
            assert 0.0 < internal.fraction <= 1.0


def test_object_fractions_follow_eq6(env):
    from repro.constants import MAXDOV
    search = HDoVSearch(env, "indexed-vertical")
    cell_id = interesting_cells(env)[0]
    result = search.query_cell(cell_id, 0.0)
    truth = env.visibility.cell(cell_id)
    for obj in result.objects:
        expected = min(truth.get(obj.object_id) / MAXDOV, 1.0)
        assert obj.fraction == pytest.approx(expected)


def test_direct_objects_decrease_with_eta(env):
    """Larger eta terminates more branches, so fewer direct objects."""
    search = HDoVSearch(env, "indexed-vertical")
    for cell_id in interesting_cells(env):
        counts = [len(search.query_cell(cell_id, eta).objects)
                  for eta in (0.0, 0.004, 0.02, 0.1)]
        assert counts == sorted(counts, reverse=True)


def test_light_io_decreases_with_eta(env):
    search = HDoVSearch(env, "indexed-vertical")
    cells = interesting_cells(env)

    def light_ios(eta):
        env.reset_stats()
        for cell_id in cells:
            search.scheme.current_cell = None
            search.query_cell(cell_id, eta)
        return env.light_stats.total_ios

    baseline = light_ios(0.0)
    coarse = light_ios(0.05)
    assert coarse <= baseline


def test_fetch_models_false_skips_heavy_io(env):
    search = HDoVSearch(env, "indexed-vertical", fetch_models=False)
    env.reset_stats()
    search.query_cell(interesting_cells(env)[0], 0.0)
    assert env.heavy_stats.total_ios == 0
    assert env.light_stats.total_ios > 0


def test_negative_eta_rejected(env):
    search = HDoVSearch(env, "indexed-vertical")
    with pytest.raises(HDoVError):
        search.query_cell(0, -0.1)


def test_query_point_resolves_cell(env):
    search = HDoVSearch(env, "indexed-vertical")
    point = env.grid.cell_center(interesting_cells(env)[0])
    result = search.query_point(point, 0.0)
    assert result.cell_id == env.grid.cell_of_point(point)


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_a_non_finite_viewpoint_is_a_visibility_error(env, axis, value):
    """A NaN or infinite x or y lies in no cell: a typed refusal, not
    the ``ValueError`` / ``OverflowError`` of ``int()``, and no flip."""
    search = HDoVSearch(env, "indexed-vertical")
    before = search.scheme.current_cell
    point = [0.0, 0.0, 1.7]
    point[axis] = value
    with pytest.raises(VisibilityError, match="must be finite"):
        search.query_point(point, 0.0)
    assert search.scheme.current_cell == before


def test_flip_flag(env):
    search = HDoVSearch(env, "indexed-vertical")
    cells = interesting_cells(env)
    search.scheme.current_cell = None
    first = search.query_cell(cells[0], 0.0)
    second = search.query_cell(cells[0], 0.0)
    third = search.query_cell(cells[1], 0.0)
    assert first.flipped
    assert not second.flipped
    assert third.flipped


def test_nvo_heuristic_off_terminates_at_least_as_much(env):
    with_h = HDoVSearch(env, "indexed-vertical")
    without_h = HDoVSearch(env, "indexed-vertical", use_nvo_heuristic=False)
    for cell_id in interesting_cells(env):
        eta = 0.02
        with_count = len(with_h.query_cell(cell_id, eta).internals)
        without_count = len(without_h.query_cell(cell_id, eta).internals)
        assert without_count >= with_count


def test_result_totals_consistent(env):
    search = HDoVSearch(env, "indexed-vertical")
    result = search.query_cell(interesting_cells(env)[0], 0.01)
    assert result.total_polygons == (
        sum(o.polygons for o in result.objects)
        + sum(i.polygons for i in result.internals))
    assert result.num_results == len(result.objects) + len(result.internals)


def test_fully_hidden_cell_reports_zero_vpages_read(env):
    """Regression: a fully-hidden cell (the root has no V-page) used to
    report one phantom V-page read — the counter was bumped before the
    absence was discovered.  Only actual reads may count."""
    search = HDoVSearch(env, "indexed-vertical")
    cell_id = interesting_cells(env)[0]
    search.query_cell(cell_id, 0.0)
    # Simulate a fully-hidden cell: the flipped-in segment has no
    # visible nodes at all, so even the root's V-page lookup misses.
    search.scheme._segment = {}
    try:
        result = search.query_cell(cell_id, 0.0)
    finally:
        # Force the next flip to reload the real segment (the scheme is
        # shared by the session-scoped environment).
        search.scheme.current_cell = None
    assert result.vpages_read == 0
    assert result.num_results == 0
    assert result.nodes_read == 1          # the root node itself was read


def test_decision_counters_partition_entries(env):
    """Every V-entry of every visited node is exactly one of: pruned,
    retrieved (leaf), terminated, or recursed."""
    search = HDoVSearch(env, "indexed-vertical")
    for cell_id in interesting_cells(env, limit=3):
        result = search.query_cell(cell_id, 0.002)
        assert result.recursed == result.nodes_read - 1  # root not recursed
        assert result.terminated == len(result.internals)
        assert result.pruned >= 0
        total_entries = (result.pruned + len(result.objects)
                         + result.terminated + result.recursed)
        assert total_entries > 0


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.floats(0.0, 1.0), pick=st.integers(0, 10_000))
def test_retrieved_polygons_and_bytes_are_the_records_own(env, k, pick):
    """The search interpolates once per retrieved LoD and derives the
    bytes from that polygon count; the pair must equal, to ``==``, what
    the chain and ``bytes_for_fraction`` each compute from the blend
    fraction — for objects (eq. 6), internal LoDs (eq. 5) and the
    degraded full-detail fallback."""
    search = HDoVSearch(env, "indexed-vertical", fetch_models=False)
    result = SearchResult(cell_id=0, eta=1.0)
    record = env.objects[sorted(env.objects)[pick % len(env.objects)]]
    dov = k * MAXDOV
    search._retrieve_objects([record.object_id], [(dov, 1)], result)
    if dov > 0.0:
        (obj,) = result.objects
        assert obj.fraction == min(dov / MAXDOV, 1.0)
        assert obj.polygons == \
            record.chain.interpolated_polygons(obj.fraction)
        assert obj.bytes == record.bytes_for_fraction(obj.fraction)
    else:
        assert (result.objects, result.pruned) == ([], 1)   # line 3

    internal = env.internals[sorted(env.internals)[pick % len(env.internals)]]
    if k > 0.0:
        search._retrieve_internal(internal.node_offset, k, 1.0, result)
    search._degrade(internal.node_offset, result)
    for got in result.internals:
        assert got.polygons == \
            internal.lod.chain.interpolated_polygons(got.fraction)
        assert got.bytes == internal.bytes_for_fraction(got.fraction)
    assert [i.fraction for i in result.internals] == \
        ([k, 1.0] if k > 0.0 else [1.0])


@pytest.mark.parametrize("answer", [
    RetrievedObject(object_id=4, dov=0.1, fraction=0.2, polygons=100,
                    bytes=4000, blob_id=9),
    RetrievedInternal(node_offset=2, dov=0.005, fraction=0.5, polygons=50,
                      bytes=2000, covered_objects=(7, 8), blob_id=3)])
def test_answers_are_immutable(answer):
    """A recalled plan hands the same answer objects to every session
    over its files (DESIGN.md §10 "Query plans"), so no field of one
    can be assigned; an edited copy is a new answer."""
    for name in answer._fields:
        with pytest.raises(AttributeError):
            setattr(answer, name, 0)
    edited = answer._replace(dov=0.0)
    assert edited.dov == 0.0 and answer.dov > 0.0
    assert hash(answer) == hash(tuple(answer))
