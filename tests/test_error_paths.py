"""Error-path contracts: the exact exception, from the exact layer.

PR 3's degradation ladder only works if every layer fails with the
advertised type: :class:`PageNotFoundError` for bad ids,
:class:`StorageError` for closed files, :class:`SchemeError` for scheme
misuse — and the search layer survives V-page failures by degrading
while an unreadable R-tree node stays fatal.
"""

import os

import pytest

from repro.core.schemes import SCHEME_CLASSES
from repro.core.search import HDoVSearch
from repro.core.vpage import CellVPages
from repro.errors import (HDoVError, PageNotFoundError, SchemeError,
                          StorageError, TransientIOError, WalkthroughError)
from repro.serving import SessionScheduler
from repro.storage.faults import FaultInjector, FaultPlan, FaultRule
from repro.storage.pagedfile import PagedFile
from repro.walkthrough.session import make_session
from repro.walkthrough.visual import VisualSystem


# -- PagedFile: out-of-range ids ---------------------------------------------


@pytest.mark.parametrize("backend", ["mem", "disk"])
def test_out_of_range_page_ids_raise(backend, tmp_path):
    path = (os.path.join(tmp_path, "f.bin") if backend == "disk" else None)
    with PagedFile("f", page_size=64, path=path) as pf:
        pf.allocate_many(3)
        for bad in (-1, 3, 99):
            with pytest.raises(PageNotFoundError):
                pf.read_page(bad)
            with pytest.raises(PageNotFoundError):
                pf.write_page(bad, b"x")


# -- PagedFile: use after close ----------------------------------------------


@pytest.mark.parametrize("backend", ["mem", "disk"])
def test_closed_file_use_raises_storage_error(backend, tmp_path):
    path = (os.path.join(tmp_path, "f.bin") if backend == "disk" else None)
    pf = PagedFile("f", page_size=64, path=path)
    pid = pf.append_page(b"data")
    pf.close()
    with pytest.raises(StorageError):
        pf.read_page(pid)
    with pytest.raises(StorageError):
        pf.write_page(pid, b"x")
    with pytest.raises(StorageError):
        pf.allocate()
    with pytest.raises(StorageError):
        pf.append_page(b"x")


# -- Schemes: misuse raises SchemeError across all three ---------------------


def _build_scheme(name):
    cells = [CellVPages(cell_id=c,
                        pages={o: [(0.2, 3)] for o in range(8)
                               if (o + c) % 2 == 0})
             for c in range(3)]
    vpf = PagedFile(f"vpages-{name}", page_size=256)
    cls = SCHEME_CLASSES[name]
    if name == "horizontal":
        scheme = cls(vpf)
    else:
        scheme = cls(vpf, PagedFile(f"vindex-{name}", page_size=256))
    scheme.build(8, cells)
    return scheme


@pytest.mark.parametrize("name", sorted(SCHEME_CLASSES))
def test_scheme_misuse_raises_scheme_error(name):
    scheme = _build_scheme(name)
    with pytest.raises(SchemeError):
        scheme.flip_to_cell(42)            # unknown cell
    with pytest.raises(SchemeError):
        scheme.ventries(0)                 # read before any flip
    scheme.flip_to_cell(0)
    with pytest.raises(SchemeError):
        scheme.ventries(1000)              # out-of-range node offset
    # After the failed calls the scheme still answers normally.
    assert scheme.ventries(0) is not None


# -- Search: degrade on V-page loss, die on node loss ------------------------


def _busiest_cell(env):
    return max(env.grid.cell_ids(),
               key=lambda c: env.visibility.cell(c).num_visible)


def _rules(*matches):
    return FaultPlan("kill", tuple(FaultRule("read-error", match=m, rate=1.0)
                                   for m in matches))


def test_vpage_loss_degrades_but_answers(env):
    """Unreadable V-pages (data + index) degrade the whole query to the
    root's internal LoD: complete coverage, coarser answer, no raise."""
    scheme = "indexed-vertical"
    search = HDoVSearch(env, scheme)
    search.scheme.current_cell = None
    cell_id = _busiest_cell(env)
    injector = FaultInjector(
        _rules(f"vpages-{scheme}", f"vindex-{scheme}"), seed=0)
    injector.install(env.schemes[scheme].vpage_file,
                     env.schemes[scheme].index_file)
    try:
        result = search.query_cell(cell_id, eta=0.002)
    finally:
        injector.uninstall()
        search.scheme.current_cell = None
    assert result.degraded >= 1
    visible = set(env.visibility.cell(cell_id).visible_ids())
    assert visible <= set(result.covered_object_ids())


def test_vpage_data_loss_degrades_per_subtree(env):
    """With only the V-page *data* file down, the flip (index) still
    succeeds and each affected subtree degrades individually."""
    scheme = "indexed-vertical"
    search = HDoVSearch(env, scheme)
    search.scheme.current_cell = None
    cell_id = _busiest_cell(env)
    injector = FaultInjector(_rules(f"vpages-{scheme}"), seed=0)
    injector.install(env.schemes[scheme].vpage_file)
    try:
        result = search.query_cell(cell_id, eta=0.002)
    finally:
        injector.uninstall()
        search.scheme.current_cell = None
    assert result.degraded >= 1
    visible = set(env.visibility.cell(cell_id).visible_ids())
    assert visible <= set(result.covered_object_ids())


def test_node_store_loss_is_fatal(env):
    """The bottom of the ladder: without the R-tree node there is no
    entry list and no internal-LoD pointer, so the error propagates."""
    search = HDoVSearch(env, "indexed-vertical")
    search.scheme.current_cell = None
    injector = FaultInjector(_rules("tree"), seed=0)
    injector.install(env.node_store.pfile)
    try:
        with pytest.raises(TransientIOError):
            search.query_cell(_busiest_cell(env), eta=0.002)
    finally:
        injector.uninstall()
        search.scheme.current_cell = None


@pytest.mark.parametrize("eta", [float("nan"), -0.001, float("-inf")])
def test_nan_and_negative_eta_are_refused(env, eta):
    """NaN passes ``eta < 0``; it must be refused where negatives are —
    it serialises as ``NaN`` (not JSON) and, as a plan token, never
    equals itself."""
    search = HDoVSearch(env, "indexed-vertical", fetch_models=False)
    cell_id = _busiest_cell(env)
    for query in (search.query_cell, search.query_cell_degraded):
        with pytest.raises(HDoVError, match="eta must be >= 0"):
            query(cell_id, eta)
    with pytest.raises(WalkthroughError, match="eta must be >= 0"):
        VisualSystem(env, eta=eta, scheme="indexed-vertical")


def test_infinite_eta_stays_legal(env):
    """``inf``: terminate wherever eq. 4 allows."""
    search = HDoVSearch(env, "indexed-vertical", fetch_models=False)
    result = search.query_cell(_busiest_cell(env), float("inf"))
    assert result.num_results > 0
    assert search.query_cell_degraded(0, float("inf")).degraded == 1
    VisualSystem(env, eta=float("inf"), scheme="indexed-vertical")


@pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0])
def test_nan_and_non_positive_budget_and_rate_are_refused(env, value):
    """NaN passes ``x <= 0``: as a budget it never sheds (``ms > nan``
    is false) and reaches the report as non-JSON."""
    with pytest.raises(WalkthroughError, match="frame_budget_ms must be > 0"):
        SessionScheduler([], frame_budget_ms=value)


def test_infinite_frame_budget_stays_legal(env):
    """``inf``: a budget nothing exceeds — never shed."""
    assert SessionScheduler(
        [], frame_budget_ms=float("inf")).frame_budget_ms == float("inf")


@pytest.mark.parametrize("num_frames", [0, -1])
def test_a_session_of_no_frames_is_refused(env, num_frames):
    """A negative count reached ``numpy.linspace`` as a ``ValueError``
    and 0 built a session only its first consumer rejected."""
    for pattern in (1, 2, 3, 4):
        with pytest.raises(WalkthroughError, match="num_frames must be >= 1"):
            make_session(pattern, env.scene.bounds(), num_frames=num_frames)
    assert make_session(1, env.scene.bounds(), num_frames=1).num_frames == 1
