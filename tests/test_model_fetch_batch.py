"""A leaf's model fetches are one charged run list.

``HDoVSearch`` fetches the model prefixes of a leaf's retrieved objects
after its pass over the entries, with one ``ObjectStore.fetch_prefixes``
that books them through one ``PagedFile.read_runs``.  The batch must be
invisible in everything but the call count: a cold stream over every
scheme and codec equals, with ``==``, a twin whose leaves fetch one
``fetch_prefix`` per object — whole answers, both I/O ledgers float for
float, every registry series and every file head.

``read_runs`` itself is held to one ``read_run`` per run, on the files
where it books the runs in one loop and on those where it falls back
(stored pages, a latency plan, a disk file), at read-ahead windows of
0, 1 and 4 pages, on forward, backward and exactly-in-window runs and
on a run that crosses ``num_pages`` — with a negative count after it,
refused before any charge; ``fetch_prefixes`` checks every id and size
before it charges anything.
"""

import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import BYTES_PER_POLYGON
from repro.core.search import HDoVSearch, RetrievedObject
from repro.errors import StorageError
from repro.lod.selection import leaf_lod_fraction
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.replay import cold_queries
from repro.storage.disk import DiskModel, IOStats
from repro.storage.faults import FaultInjector, FaultPlan, FaultRule
from repro.storage.objectstore import ObjectStore
from repro.storage.pagedfile import PagedFile

BUILDS = [("env", "horizontal"), ("env", "vertical"),
          ("env", "indexed-vertical"), ("env_packed", "vertical"),
          ("env_packed", "indexed-vertical")]
COLD_ETAS = (0.0, 0.001, 0.05)


def one_fetch_per_object(search, object_ids, ventries, result):
    """The leaf pass as it was before the batch: each retrieved object
    fetched by its own ``fetch_prefix``, in entry order."""
    for object_id, (dov, _nvo) in zip(object_ids, ventries):
        if dov == 0.0:
            result.pruned += 1
            continue
        record = search.env.objects[object_id]
        fraction = leaf_lod_fraction(dov)
        polygons = record.chain.interpolated_polygons(fraction)
        nbytes = polygons * BYTES_PER_POLYGON
        if search.fetch_models:
            search.env.object_store.fetch_prefix(record.blob_id, nbytes)
        result.objects.append(RetrievedObject(
            object_id=object_id, dov=dov, fraction=fraction,
            polygons=polygons, bytes=nbytes, blob_id=record.blob_id))


def cold_stream(env, scheme):
    """Every cell at three η from cold: answers, both ledgers, every
    registry series counted from zero, and each file's head."""
    search = HDoVSearch(env, scheme)
    queries = [(cell, eta) for cell in env.grid.cell_ids()
               for eta in COLD_ETAS]
    with use_registry(MetricsRegistry()) as registry:
        stream = cold_queries(env, queries,
                              lambda query: search.query_cell(*query))
    return (stream.answers, stream.light.to_dict(), stream.heavy.to_dict(),
            registry.collect(),
            [pfile._last_accessed for pfile in env.files()])


@pytest.mark.parametrize("fixture, scheme", BUILDS)
def test_batched_fetches_equal_one_fetch_per_object(request, monkeypatch,
                                                    fixture, scheme):
    env = request.getfixturevalue(fixture)
    batches = []
    real_fetch_prefixes = ObjectStore.fetch_prefixes
    monkeypatch.setattr(
        ObjectStore, "fetch_prefixes",
        lambda store, wanted: batches.append(len(wanted))
        or real_fetch_prefixes(store, wanted))
    batched = cold_stream(env, scheme)
    assert batches and max(batches) > 1     # some leaf fetched several
    monkeypatch.setattr(HDoVSearch, "_retrieve_objects",
                        one_fetch_per_object)
    twin = cold_stream(env, scheme)
    assert batched[0] == twin[0]
    assert batched[1:] == twin[1:]
    assert batched[2]["reads"] > 0


# -- read_runs against one read_run per run ------------------------------------

PAGE = 64
NUM_PAGES = 20
DISK = DiskModel(seek_ms=8.0, transfer_ms=0.1, readahead_pages=4)
KINDS = ("unwritten", "stored", "latency", "faulted", "disk")
LATENCY = FaultPlan("slow", (FaultRule("latency", rate=0.3,
                                       latency_ms=2.5),))
FAULTS = FaultPlan("mixed", (FaultRule("read-error", rate=0.1),
                             FaultRule("latency", rate=0.2,
                                       latency_ms=2.5)))


def build(kind, workdir, disk=DISK):
    """``NUM_PAGES`` pages: none written (``unwritten``, the models
    file's shape, and ``latency``), or every page written, in memory,
    under a plan or on disk."""
    pfile = PagedFile("runs", page_size=PAGE, disk=disk, stats=IOStats(),
                      path=f"{workdir}/runs" if kind == "disk" else None)
    pfile.allocate_many(NUM_PAGES)
    if kind not in ("unwritten", "latency"):
        for page_id in range(NUM_PAGES):
            pfile.write_page(page_id, bytes([page_id + 1]) * PAGE)
    pfile.stats.reset()
    injector = FaultInjector({"latency": LATENCY, "faulted": FAULTS}
                             .get(kind), seed=5)
    if kind in ("latency", "faulted"):
        injector.install(pfile)
    return pfile, injector


def read(kind, runs, batched, disk=DISK):
    """Read ``runs`` one way — ``read_runs``, or every count checked and
    then one ``read_run`` per run; everything that must agree between
    the two ways."""
    with tempfile.TemporaryDirectory() as workdir, \
            use_registry(MetricsRegistry()) as registry:
        pfile, injector = build(kind, workdir, disk)
        try:
            if batched:
                pfile.read_runs(runs)
            else:
                for _first_page, count in runs:
                    if count < 0:
                        raise StorageError(
                            f"count must be >= 0, got {count}")
                for first_page, count in runs:
                    pfile.read_run(first_page, count)
            outcome = "ok"
        except StorageError as exc:
            outcome = (type(exc).__name__, str(exc))
        finally:
            injector.uninstall()
            pfile.close()
        return (outcome, pfile.stats.to_dict(), registry.collect(),
                pfile._last_accessed, dict(injector.injected))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(-1, NUM_PAGES + 1),
                               st.integers(0, 6)), max_size=6),
       readahead=st.sampled_from([0, 1, 4]))
# The head's delta to the next run: 0, exactly the window, one past it
# (the window is one page when ``readahead_pages`` is 0).
@example(runs=[(3, 2), (4, 1), (8, 3), (15, 2)], readahead=4)
@example(runs=[(3, 2), (4, 1), (5, 3), (9, 2)], readahead=0)
# Backward runs, a cold head after an empty run, a run ending at the end.
@example(runs=[(12, 3), (2, 2), (0, 0), (1, 1), (15, 5)], readahead=4)
# A negative count after a crossing run: refused before any charge.
@example(runs=[(0, 2), (NUM_PAGES - 2, 5), (1, -1)], readahead=4)
@example(runs=[(0, 2), (NUM_PAGES - 2, 5), (1, 3)], readahead=4)
def test_read_runs_equals_one_read_run_per_run(kind, runs, readahead):
    disk = DiskModel(seek_ms=8.0, transfer_ms=0.1,
                     readahead_pages=readahead)
    batched = read(kind, runs, batched=True, disk=disk)
    assert batched == read(kind, runs, batched=False, disk=disk)
    if any(count < 0 for _first_page, count in runs):
        assert batched[1]["reads"] == 0


def test_an_empty_run_list_reads_nothing():
    with tempfile.TemporaryDirectory() as workdir:
        pfile, _ = build("unwritten", workdir)
        pfile.read_run(3, 1)
        before = (pfile.stats.to_dict(), pfile._last_accessed)
        assert pfile.read_runs([]) is None
        assert (pfile.stats.to_dict(), pfile._last_accessed) == before


@pytest.mark.parametrize("kind", ("unwritten", "stored"))
def test_a_run_crossing_the_end_charges_its_valid_prefix(kind):
    outcome, stats, *_ = read(kind, [(0, 2), (NUM_PAGES - 2, 5)],
                              batched=True)
    assert outcome[0] == "PageNotFoundError"
    assert stats["reads"] == 4


def test_a_negative_count_is_refused_before_any_charge():
    with tempfile.TemporaryDirectory() as workdir:
        pfile, _ = build("unwritten", workdir)
        with pytest.raises(StorageError, match="count must be >= 0"):
            pfile.read_runs([(0, 2), (4, -1)])
        assert pfile.stats.reads == 0


@pytest.mark.parametrize("wanted", [[(0, 100), (99, 10)],
                                    [(0, 100), (1, -5)]])
def test_fetch_prefixes_checks_every_pair_before_reading(wanted):
    store = ObjectStore(PagedFile("models", page_size=PAGE, disk=DISK,
                                  stats=IOStats()))
    for size in (300, 50):
        store.put(size)
    with pytest.raises(StorageError):
        store.fetch_prefixes(wanted)
    assert store.pfile.stats.reads == 0
    assert store.fetch_prefixes([(0, 100), (1, 50), (0, 300)]) == 2 + 1 + 5
    assert store.pfile.stats.reads == 8
