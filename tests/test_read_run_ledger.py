"""``read_run`` and ``count`` x ``read_page`` leave identical ledgers,
and so do ``write_run`` and ``len(images)`` x ``write_page``.

``PagedFile.read_run`` runs the same per-page body as ``read_page``.  Two files built the same way, one read
as a run and one page by page, must therefore agree with ``==`` — no
tolerance on ``simulated_ms`` — on the returned bytes (or the error),
the shared ``IOStats`` and every registry series, whatever the head
position, read-ahead window and back-seek cost, on in-memory,
disk-backed, journaled-with-overlay and fault-injected files, and on
in-memory files that store no page or only short payloads — the kinds a
run over a memory file without an injector books in one step.  A write
run must also leave every stored image and CRC as the page-by-page
writes leave them: in the memory backend, the data file, the journal
and its overlay.
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


#: Write-side faults: the retried error, the torn image, the spike.
WRITE_FAULTS = FaultPlan("write-ledger", (
    FaultRule("write-error", rate=0.12),
    FaultRule("torn-write", rate=0.08),
    FaultRule("latency", rate=0.2, latency_ms=2.5),
))


def build(kind, disk, workdir, fault_seed, plan=FAULTS):
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
        FaultInjector(plan, seed=fault_seed).install(pfile)
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


# -- the write side: write_run == len(images) x write_page -------------------

WRITE_KINDS = ("memory", "disk", "journal-overlay", "faulted")
#: Payloads a run draws from: short, empty, full; a run that names one
#: twice writes the same object twice (one CRC on the one-step path).
IMAGES = (b"", b"x", bytes(range(1, 24)), bytes([9]) * PAGE,
          bytes([3]) * (PAGE - 1))


def stored(pfile, workdir):
    """Everything a write leaves behind: the memory backend's images
    and CRCs, the journal overlay, the data file and the journal."""
    files = {}
    if pfile._fh is not None:
        pfile._fh.flush()
        for name in ("ledger", "ledger.wal"):
            try:
                with open(f"{workdir}/{name}", "rb") as fh:
                    files[name] = fh.read()
            except FileNotFoundError:
                pass
    return dict(pfile._mem), dict(pfile._crcs), dict(pfile._overlay), files


def replay_writes(kind, disk, head, first, picks, fault_seed, as_run,
                  facade=False):
    """Build, park the head, write; returns everything that must agree."""
    images = [IMAGES[pick] for pick in picks]
    with tempfile.TemporaryDirectory() as workdir, \
            use_registry(MetricsRegistry()) as registry:
        pfile = build(kind, disk, workdir, fault_seed, WRITE_FAULTS)
        try:
            if head is None:
                pfile.reset_head()
            else:
                outcome(lambda: pfile.read_page(head))
            if facade:
                run = (lambda: pageio.write_run(
                    pfile, first, images, component="ledger"))
                paged = (lambda: [pageio.write_page(
                    pfile, first + i, data, component="ledger")
                    for i, data in enumerate(images)])
            else:
                run = lambda: pfile.write_run(first, images)  # noqa: E731
                paged = (lambda: [pfile.write_page(first + i, data)
                                  for i, data in enumerate(images)])
            result = outcome(run if as_run else paged)
            if result[0] == "ok":
                result = ("ok", None)
            series = registry.collect()
            for name in PER_FILE_SERIES:
                assert f'{name}{{file="ledger"}}' in series
            counted = 'pageio_writes_total{component="ledger"}'
            if result[0] != "ok" or series.get(counted) == 0.0:
                # A run counts its pages up front and creates its series
                # even when empty, as ``read_run`` does; the page-by-page
                # caller stops counting at the failure.
                series.pop(counted, None)
            return (result, pfile.stats.to_dict(), series,
                    stored(pfile, workdir))
        finally:
            pfile.install_faults(None)
            pfile.close()


@pytest.mark.parametrize("kind", WRITE_KINDS)
@settings(max_examples=40, deadline=None)
@given(first=st.integers(-1, NUM_PAGES + 1),
       picks=st.lists(st.integers(0, len(IMAGES) - 1), max_size=12),
       head=st.one_of(st.none(), st.integers(0, NUM_PAGES - 1)),
       readahead=st.sampled_from([0, 1, 4, 32]),
       fault_seed=st.integers(0, 50), facade=st.booleans())
def test_write_run_and_page_by_page_leave_equal_ledgers_and_pages(
        kind, first, picks, head, readahead, fault_seed, facade):
    disk = DiskModel(seek_ms=8.0, transfer_ms=0.1,
                     readahead_pages=readahead)
    as_run = replay_writes(kind, disk, head, first, picks, fault_seed,
                           True, facade)
    paged = replay_writes(kind, disk, head, first, picks, fault_seed,
                          False, facade)
    assert as_run == paged


@pytest.mark.parametrize("kind", WRITE_KINDS[:3])
def test_write_run_past_the_end_is_refused_like_write_page(kind):
    """A run that crosses ``num_pages`` writes its valid prefix, then
    raises what ``write_page`` raises for the first page past the end."""
    disk = DiskModel()
    picks = [2, 3, 4, 2, 1]
    result, stats, series, pages = replay_writes(
        kind, disk, None, NUM_PAGES - 3, picks, 0, True)
    assert result[0] == PageNotFoundError.__name__
    before = replay_writes(kind, disk, None, 0, [], 0, True)[1]
    assert stats["writes"] - before["writes"] == 3
    assert (result, stats, series, pages) == replay_writes(
        kind, disk, None, NUM_PAGES - 3, picks, 0, False)


@pytest.mark.parametrize("facade", [False, True])
def test_an_oversized_payload_is_refused_before_any_charge(facade):
    with use_registry(MetricsRegistry()) as registry:
        pfile = PagedFile("ledger", page_size=PAGE, stats=IOStats())
        pfile.allocate_many(4)
        images = [b"ok", b"ok", bytes(PAGE + 1)]
        with pytest.raises(StorageError, match="exceeds page size"):
            if facade:
                pageio.write_run(pfile, 0, images, component="ledger")
            else:
                pfile.write_run(0, images)
        assert pfile.stats.total_ios == 0
        assert registry.value(names.PAGEDFILE_WRITES, file="ledger") == 0
        assert registry.value(names.PAGEIO_WRITES, component="ledger") == 0
        assert pfile._mem == {}


def test_a_memory_run_crcs_each_distinct_image_once(monkeypatch):
    """On the one-step path the same image object, written to many
    pages, is checksummed once; the CRCs are still the padded images'."""
    import repro.storage.pagedfile as pagedfile_module
    calls = []
    real = pagedfile_module.zlib.crc32

    class CountingZlib:
        @staticmethod
        def crc32(data, value=0):
            calls.append(len(data))
            return real(data, value)

    with use_registry(MetricsRegistry()):
        pfile = PagedFile("ledger", page_size=PAGE, stats=IOStats())
        pfile.allocate_many(6)
        zero, full = IMAGES[1], IMAGES[3]
        monkeypatch.setattr(pagedfile_module, "zlib", CountingZlib)
        pfile.write_run(0, [zero, full, zero, zero, full, zero])
        monkeypatch.undo()
        assert len(calls) == 4                  # (payload, tail) x 2
        assert pfile._crcs == {page: real(pfile.read_page(page))
                               for page in range(6)}
