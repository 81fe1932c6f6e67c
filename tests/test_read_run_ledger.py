"""``read_run`` and ``count`` x ``read_page`` leave identical ledgers.

``PagedFile.read_run`` runs the same per-page body as ``read_page``.  Two files built the same way, one read
as a run and one page by page, must therefore agree with ``==`` — no
tolerance on ``simulated_ms`` — on the returned bytes (or the error),
the shared ``IOStats`` and every registry series, whatever the head
position, read-ahead window and back-seek cost, on in-memory,
disk-backed, journaled-with-overlay and fault-injected files, and on
in-memory files that store no page or only short payloads — the kinds a
run over a memory file without an injector books in one step.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageNotFoundError, StorageError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.storage.disk import DiskModel, IOStats
from repro.storage import pageio
from repro.storage.faults import FaultInjector, FaultPlan, FaultRule
from repro.storage.pagedfile import PagedFile

PAGE = 64
NUM_PAGES = 20
KINDS = ("memory", "disk", "journal-overlay", "faulted", "unwritten",
         "short")
MEMORY_KINDS = ("memory", "faulted", "unwritten", "short")

FAULTS = FaultPlan("ledger", (
    FaultRule("read-error", rate=0.12),
    FaultRule("bit-flip", rate=0.08),
    FaultRule("latency", rate=0.2, latency_ms=2.5),
))

PER_FILE_SERIES = (
    names.PAGEDFILE_READS, names.PAGEDFILE_WRITES, names.PAGEDFILE_SEEKS,
    names.PAGEDFILE_BACK_SEEKS, names.PAGEDFILE_FORWARD_SEEKS,
    names.PAGEDFILE_SEQUENTIAL, names.PAGEDFILE_BYTES_READ,
    names.PAGEDFILE_BYTES_WRITTEN, names.PAGEDFILE_SIMULATED_MS)


def build(kind, disk, workdir, fault_seed):
    """One file of ``NUM_PAGES`` pages (page 7 allocated, never
    written; ``unwritten``: none written; ``short``: payloads of 1 to 5
    bytes), under the current registry."""
    path = None if kind in MEMORY_KINDS else f"{workdir}/ledger"
    pfile = PagedFile("ledger", page_size=PAGE, disk=disk, stats=IOStats(),
                      path=path, journal=kind == "journal-overlay")
    pfile.allocate_many(NUM_PAGES)
    for page_id in range(NUM_PAGES):
        size = page_id % 5 + 1 if kind == "short" else PAGE
        if page_id != 7 and kind != "unwritten":
            pfile.write_page(page_id, bytes([page_id + 1]) * size)
    if kind == "journal-overlay":
        # Half the pages in the data file, the rest (rewritten) only in
        # the overlay, committed or not.
        pfile.checkpoint()
        for page_id in range(0, NUM_PAGES, 2):
            pfile.write_page(page_id, bytes([100 + page_id]) * PAGE)
        pfile.commit()
        pfile.write_page(3, bytes([200]) * PAGE)
    if kind == "faulted":
        FaultInjector(FAULTS, seed=fault_seed).install(pfile)
    return pfile


def outcome(read):
    try:
        return ("ok", read())
    except StorageError as exc:
        return (type(exc).__name__, str(exc))


def replay(kind, disk, head, first, count, fault_seed, as_run):
    """Build, park the head, read; returns everything that must agree."""
    with tempfile.TemporaryDirectory() as workdir, \
            use_registry(MetricsRegistry()) as registry:
        pfile = build(kind, disk, workdir, fault_seed)
        try:
            if head is None:
                pfile.reset_head()
            else:
                outcome(lambda: pfile.read_page(head))
            if as_run:
                result = outcome(lambda: pfile.read_run(first, count))
            else:
                result = outcome(lambda: b"".join(
                    [pfile.read_page(first + i) for i in range(count)]))
            series = registry.collect()
            for name in PER_FILE_SERIES:
                assert f'{name}{{file="ledger"}}' in series
            return result, pfile.stats.to_dict(), series
        finally:
            pfile.install_faults(None)
            pfile.close()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(first=st.integers(-1, NUM_PAGES + 1), count=st.integers(0, 12),
       head=st.one_of(st.none(), st.integers(0, NUM_PAGES - 1)),
       readahead=st.sampled_from([0, 1, 4, 32]),
       fault_seed=st.integers(0, 50))
def test_run_and_page_by_page_ledgers_are_equal(kind, first, count, head,
                                                readahead, fault_seed):
    disk = DiskModel(seek_ms=8.0, transfer_ms=0.1,
                     readahead_pages=readahead)
    as_run = replay(kind, disk, head, first, count, fault_seed, True)
    paged = replay(kind, disk, head, first, count, fault_seed, False)
    assert as_run == paged


@pytest.mark.parametrize("kind", KINDS[:3])
def test_run_crossing_the_end_charges_its_valid_prefix(kind):
    disk = DiskModel()
    result, stats, series = replay(kind, disk, None, NUM_PAGES - 3, 5, 0,
                                   True)
    assert result[0] == PageNotFoundError.__name__
    before = replay(kind, disk, None, 0, 0, 0, True)[1]
    assert stats["reads"] - before["reads"] == 3
    assert stats["seeks"] - before["seeks"] == 1
    assert stats["sequential_reads"] - before["sequential_reads"] == 2
    assert (result, stats, series) == replay(kind, disk, None,
                                             NUM_PAGES - 3, 5, 0, False)


def test_negative_count_is_rejected_before_any_charge():
    with use_registry(MetricsRegistry()):
        pfile = PagedFile("ledger", page_size=PAGE, stats=IOStats())
        pfile.allocate_many(2)
        with pytest.raises(StorageError):
            pfile.read_run(0, -1)
        assert pfile.stats.total_ios == 0
        pfile.close()
        with pytest.raises(StorageError):
            pfile.read_run(0, 1)


def test_facade_rejects_a_negative_count_before_counting():
    """``pageio.read_run`` refuses a negative ``count`` with the storage
    layer's typed error, before its component counter moves."""
    with use_registry(MetricsRegistry()) as registry:
        pfile = PagedFile("ledger", page_size=PAGE, stats=IOStats())
        pfile.allocate_many(2)
        with pytest.raises(StorageError, match="count must be >= 0"):
            pageio.read_run(pfile, 0, -2, component="ledger")
        assert registry.value(names.PAGEIO_READS, component="ledger") == 0
        assert pfile.stats.total_ios == 0
