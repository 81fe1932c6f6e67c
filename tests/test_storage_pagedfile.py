"""PagedFile and disk model tests."""

import dataclasses
import os

import pytest

from repro.errors import PageNotFoundError, StorageError
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile


def make_file(**kwargs):
    return PagedFile("test", page_size=256,
                     disk=DiskModel(seek_ms=10.0, transfer_ms=1.0,
                                    readahead_pages=1),
                     stats=IOStats(), **kwargs)


def test_allocate_and_roundtrip():
    pf = make_file()
    pid = pf.allocate()
    pf.write_page(pid, b"hello")
    data = pf.read_page(pid)
    assert data.startswith(b"hello")
    assert len(data) == 256


def test_append_page():
    pf = make_file()
    pid = pf.append_page(b"abc")
    assert pf.read_page(pid).startswith(b"abc")
    assert pf.num_pages == 1


def test_read_unallocated_page_raises():
    pf = make_file()
    with pytest.raises(PageNotFoundError):
        pf.read_page(0)


def test_oversized_write_rejected():
    pf = make_file()
    pid = pf.allocate()
    with pytest.raises(StorageError):
        pf.write_page(pid, bytes(257))


def test_allocate_many_contiguous():
    pf = make_file()
    first = pf.allocate_many(5)
    assert first == 0
    assert pf.num_pages == 5
    with pytest.raises(StorageError):
        pf.allocate_many(0)


def test_io_accounting_and_sequentiality():
    pf = make_file()
    pf.allocate_many(10)
    pf.stats.reset()
    pf.read_page(0)                    # cold: seek
    pf.read_page(1)                    # sequential
    pf.read_page(2)                    # sequential
    pf.read_page(9)                    # jump: seek
    assert pf.stats.reads == 4
    assert pf.stats.seeks == 2
    assert pf.stats.sequential_reads == 2
    assert pf.stats.simulated_ms == pytest.approx(2 * 11.0 + 2 * 1.0)


def test_backward_jump_is_seek():
    pf = make_file()
    pf.allocate_many(5)
    pf.stats.reset()
    pf.read_page(4)
    pf.read_page(3)
    assert pf.stats.seeks == 2


def test_readahead_window_counts_short_skips_as_sequential():
    pf = PagedFile("ra", page_size=256,
                   disk=DiskModel(seek_ms=10.0, transfer_ms=1.0,
                                  readahead_pages=4),
                   stats=IOStats())
    pf.allocate_many(20)
    pf.stats.reset()
    pf.read_page(0)     # seek
    pf.read_page(3)     # skip of 3 <= window: sequential
    pf.read_page(8)     # skip of 5 > window: seek
    assert pf.stats.seeks == 2
    assert pf.stats.sequential_reads == 1


def test_reset_head_forces_seek():
    pf = make_file()
    pf.allocate_many(3)
    pf.stats.reset()
    pf.read_page(0)
    pf.reset_head()
    pf.read_page(1)     # would be sequential without the reset
    assert pf.stats.seeks == 2


def test_read_run_sequential_after_first():
    pf = make_file()
    pf.allocate_many(6)
    for i in range(6):
        pf.write_page(i, bytes([i]) * 10)
    pf.stats.reset()
    data = pf.read_run(2, 3)
    assert len(data) == 3 * 256
    assert data[0] == 2
    assert pf.stats.seeks == 1
    assert pf.stats.sequential_reads == 2


def test_write_counts():
    pf = make_file()
    pid = pf.allocate()
    pf.stats.reset()
    pf.write_page(pid, b"x")
    assert pf.stats.writes == 1
    assert pf.stats.bytes_written == 256


def test_closed_file_rejects_access():
    pf = make_file()
    pid = pf.allocate()
    pf.close()
    with pytest.raises(StorageError):
        pf.read_page(pid)


def test_refused_file_leaves_no_open_handle(tmp_path, monkeypatch):
    """A file whose length is not a whole number of physical pages is
    refused — and the handle opened to measure it is closed again."""
    import builtins

    from repro.storage import pagedfile

    path = os.path.join(tmp_path, "torn.bin")
    with open(path, "wb") as fh:
        fh.write(b"x" * 100)
    handles = []

    def spy(*args, **kwargs):
        handles.append(builtins.open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(pagedfile, "open", spy, raising=False)
    with pytest.raises(StorageError, match="not a multiple"):
        PagedFile("torn", page_size=128, path=path)
    assert [fh.closed for fh in handles] == [True]


def test_disk_backed_file_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "pages.bin")
    with PagedFile("disk", page_size=128, path=path) as pf:
        pid = pf.append_page(b"persisted")
    with PagedFile("disk", page_size=128, path=path) as pf2:
        assert pf2.num_pages == 1
        assert pf2.read_page(pid).startswith(b"persisted")


def test_repeat_same_page_read_charges_no_seek():
    """Regression: re-reading the page under the head is a zero delta —
    the head does not move, so no fresh seek may be charged."""
    pf = make_file()
    pf.allocate_many(3)
    pf.stats.reset()
    pf.read_page(0)                    # cold: seek
    pf.read_page(0)                    # same page: no repositioning
    pf.read_page(0)
    assert pf.stats.seeks == 1
    assert pf.stats.sequential_reads == 2
    assert pf.stats.simulated_ms == pytest.approx(11.0 + 2 * 1.0)


def test_repeat_same_page_write_charges_no_seek():
    pf = make_file()
    pid = pf.allocate()
    pf.stats.reset()
    pf.write_page(pid, b"a")
    pf.write_page(pid, b"b")
    assert pf.stats.seeks == 1
    assert pf.stats.sequential_reads == 1


def test_lazy_allocation_reads_zeros():
    """Allocated-but-never-written pages read back as zeros (both
    backends) without any eager zero-fill write."""
    pf = make_file()
    pid = pf.allocate()
    assert pf.read_page(pid) == bytes(256)


def test_lazy_allocation_disk_backend(tmp_path):
    # Physical pages are page_size + 8: each disk page carries an
    # 8-byte integrity trailer (magic + CRC32).  Allocation must still
    # be a truncate (metadata only), never a data write.
    path = os.path.join(tmp_path, "lazy.bin")
    with PagedFile("lazy", page_size=128, path=path) as pf:
        first = pf.allocate_many(4)
        assert os.path.getsize(path) == 4 * (128 + 8)
        assert pf.read_page(first + 2) == bytes(128)
        pf.write_page(first + 1, b"x")
        assert pf.read_page(first + 1).startswith(b"x")


def test_append_page_writes_payload_once(tmp_path):
    """Regression: file-backed allocate used to write a zero page that
    append_page immediately overwrote — a double data write."""
    path = os.path.join(tmp_path, "once.bin")
    with PagedFile("once", page_size=128, path=path) as pf:
        writes = []
        original = pf._fh.write
        pf._fh.write = lambda data: (writes.append(len(data)),
                                     original(data))[1]
        pf.append_page(b"payload")
        # One write call of one physical page (payload + CRC trailer).
        assert writes == [128 + 8]


def test_close_flushes_fsyncs_and_is_idempotent(tmp_path, monkeypatch):
    """Regression: close() used to neither fsync nor tolerate a second
    call — an __exit__ after an explicit close() raised on the closed
    file handle, and a crash right after close() could lose pages that
    were still in the OS write-back cache."""
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd), real_fsync(fd))[1])
    path = os.path.join(tmp_path, "durable.bin")
    pf = PagedFile("durable", page_size=128, path=path)
    with pf:
        pid = pf.append_page(b"must survive")
        pf.close()            # explicit close inside the with-block...
        pf.close()            # ...double close is a no-op...
    # ...and so is the __exit__ that follows.  Exactly one fsync fired.
    assert len(synced) == 1
    with PagedFile("durable", page_size=128, path=path) as again:
        assert again.read_page(pid).startswith(b"must survive")


# -- seek direction classification ------------------------------------------
#
# HODOR's measure of a storage order: every non-sequential access is
# either a back seek (target below the head) or a forward seek (target
# at/above the head, or a cold/reset head).  The invariant
# ``seeks == back_seeks + forward_seeks`` must hold everywhere.


def check_split(stats):
    assert stats.seeks == stats.back_seeks + stats.forward_seeks


def test_seek_classification_matrix():
    """One file, every access shape the classifier distinguishes."""
    pf = PagedFile("matrix", page_size=256,
                   disk=DiskModel(seek_ms=10.0, transfer_ms=1.0,
                                  readahead_pages=4),
                   stats=IOStats())
    pf.allocate_many(30)
    pf.stats.reset()
    pf.read_page(10)    # cold head: forward seek
    pf.read_page(10)    # same page: sequential (zero delta)
    pf.read_page(11)    # +1: sequential
    pf.read_page(15)    # +4 == window edge: sequential
    pf.read_page(20)    # +5 > window: forward seek
    pf.read_page(19)    # -1: back seek (no backward read-ahead)
    pf.read_page(5)     # far backward: back seek
    pf.read_page(25)    # forward again: forward seek
    assert pf.stats.reads == 8
    assert pf.stats.sequential_reads == 3
    assert pf.stats.seeks == 5
    assert pf.stats.forward_seeks == 3
    assert pf.stats.back_seeks == 2
    check_split(pf.stats)


def test_cold_and_reset_heads_are_forward_seeks():
    pf = make_file()
    pf.allocate_many(5)
    pf.stats.reset()
    pf.read_page(4)     # cold: forward, even though 4 > nothing
    pf.reset_head()
    pf.read_page(0)     # after reset: forward, even though 0 < 4
    assert pf.stats.back_seeks == 0
    assert pf.stats.forward_seeks == 2
    check_split(pf.stats)


def test_writes_classify_direction_too():
    pf = make_file()
    pf.allocate_many(4)
    pf.stats.reset()
    pf.write_page(3, b"a")   # cold: forward seek
    pf.write_page(1, b"b")   # backward
    pf.read_page(2)          # +1: sequential (read-ahead window)
    pf.write_page(0, b"c")   # backward again
    assert pf.stats.sequential_reads == 1
    assert pf.stats.back_seeks == 2
    assert pf.stats.forward_seeks == 1
    check_split(pf.stats)


def test_cross_file_interleaving_keeps_heads_independent():
    """Each file has its own head: interleaved accesses on a second
    file never turn the first file's sequential scan into seeks."""
    stats = IOStats()
    disk = DiskModel(seek_ms=10.0, transfer_ms=1.0, readahead_pages=1)
    a = PagedFile("file-a", page_size=256, disk=disk, stats=stats)
    b = PagedFile("file-b", page_size=256, disk=disk, stats=stats)
    a.allocate_many(4)
    b.allocate_many(4)
    stats.reset()
    a.read_page(0)      # forward (cold a)
    b.read_page(3)      # forward (cold b)
    a.read_page(1)      # sequential on a despite b moving in between
    b.read_page(2)      # back seek on b
    a.read_page(2)      # sequential on a
    assert stats.sequential_reads == 2
    assert stats.back_seeks == 1
    assert stats.forward_seeks == 2
    check_split(stats)


def test_back_seek_default_matches_seed_costing():
    """The direction split re-prices nothing: a back seek costs what a
    forward one does, as in the pre-split model."""
    pf = make_file()
    pf.allocate_many(5)
    pf.stats.reset()
    pf.read_page(3)
    pf.read_page(0)
    pf.read_page(4)
    assert pf.stats.seeks == 3
    assert pf.stats.simulated_ms == pytest.approx(3 * 11.0)


def test_iostats_delta():
    stats = IOStats()
    disk = DiskModel()
    pf = PagedFile("delta", page_size=50, disk=disk, stats=stats)
    pf.allocate_many(2)
    pf.read_page(0)                    # a seek
    snap = stats.snapshot()
    pf.write_page(1, b"x")             # sequential
    delta = stats.delta(snap)
    assert delta.reads == 0
    assert delta.writes == 1
    assert delta.bytes_written == 50
    assert delta.simulated_ms == pytest.approx(disk.transfer_ms)


def test_iostats_arithmetic_covers_every_field():
    """snapshot/delta/reset/+=/to_dict are spelled out per field for
    speed; a field added later must not be forgotten by any of them."""
    names = [f.name for f in dataclasses.fields(IOStats)]
    # Distinct non-zero values, so a dropped or swapped field shows.
    one = IOStats(**{name: i + 1 for i, name in enumerate(names)})
    two = IOStats(**{name: 10 * (i + 1) for i, name in enumerate(names)})

    assert one.to_dict() == {name: i + 1 for i, name in enumerate(names)}
    snap = one.snapshot()
    assert snap == one and snap is not one
    total = one.snapshot()
    total += two
    assert total.to_dict() == {name: 11 * (i + 1)
                               for i, name in enumerate(names)}
    assert total.delta(one) == two
    total.reset()
    assert total == IOStats()
    assert snap == one  # snapshots are independent copies
