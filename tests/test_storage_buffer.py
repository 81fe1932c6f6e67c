"""Buffer pool tests: counters, file identity, a failed read."""

import gc
import weakref

import pytest

from repro.errors import BufferPoolError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile


@pytest.fixture()
def pfile():
    pf = PagedFile("buf", page_size=64, disk=DiskModel(), stats=IOStats())
    for i in range(10):
        pf.append_page(bytes([i]) * 8)
    pf.stats.reset()
    return pf


def test_hit_and_miss_counting(pfile):
    pool = BufferPool(capacity=4)
    pool.get(pfile, 0)
    pool.get(pfile, 0)
    assert pool.hits == 1
    assert pool.misses == 1
    assert pfile.stats.reads == 1        # second access served from pool


def test_capacity_validation():
    with pytest.raises(BufferPoolError):
        BufferPool(capacity=0)


def test_hit_rate(pfile):
    pool = BufferPool(capacity=4)
    assert pool.hit_rate == 0.0
    pool.get(pfile, 0)
    pool.get(pfile, 0)
    pool.get(pfile, 0)
    assert pool.hit_rate == pytest.approx(2 / 3)
    # The block the serve / traffic / HTTP reports embed, in the key
    # order they are byte-diffed in.
    assert list(pool.stats().items()) == [
        ("capacity", 4), ("hits", 2), ("misses", 1), ("evictions", 0),
        ("hit_rate", pool.hit_rate)]


def test_two_files_one_pool(pfile):
    other = PagedFile("other", page_size=64, disk=DiskModel(),
                      stats=IOStats())
    other.append_page(b"zz")
    pool = BufferPool(capacity=4)
    a = pool.get(pfile, 0)
    b = pool.get(other, 0)
    assert a != b
    assert pool.misses == 2


def make_small_file(name="f", fill=b"x"):
    pf = PagedFile(name, page_size=64, disk=DiskModel(), stats=IOStats())
    for _ in range(4):
        pf.append_page(fill)
    pf.stats.reset()
    return pf


def test_stable_identity_survives_address_reuse():
    """Regression: frames were keyed by ``id(pfile)``; a new PagedFile
    allocated at a garbage-collected file's address inherited its
    frames.  With stable file ids a new file can never hit old frames."""
    pool = BufferPool(capacity=4)
    pf1 = make_small_file("first", fill=b"a")
    pool.get(pf1, 0)
    assert pool.misses == 1
    del pf1
    gc.collect()
    pf2 = make_small_file("second", fill=b"b")
    data = pool.get(pf2, 0)
    assert pool.misses == 2          # a new file can never be a hit
    assert data.startswith(b"b")


def test_file_ids_are_unique_and_monotonic():
    a = make_small_file()
    b = make_small_file()
    assert a.file_id != b.file_id
    assert b.file_id > a.file_id


def test_pool_never_holds_a_file_reference():
    """The pool is handed a file per ``get`` and keeps none: a pooled
    file dies with its last caller, frames resident and no ``clear()``
    (the write-back table used to keep every file ever seen alive)."""
    pool = BufferPool(capacity=4)
    pf = make_small_file()
    pool.get(pf, 0)
    ref = weakref.ref(pf)
    del pf
    gc.collect()
    assert ref() is None
    assert pool.resident_pages == 1
    pool.clear()
    assert pool.resident_pages == 0


def test_pool_is_a_read_cache(pfile):
    """No write half and no pins: nothing to call, nothing to pass."""
    for name in ("put", "flush", "unpin"):
        assert not hasattr(BufferPool, name)
    pool = BufferPool(capacity=2)
    with pytest.raises(TypeError):
        pool.get(pfile, 0, pin=True)
    assert (pool.hits, pool.misses, pool.resident_pages) == (0, 0, 0)


def test_pool_metrics_mirror_counters(pfile):
    from repro.obs.metrics import get_registry

    reg = get_registry()
    snap = reg.snapshot()
    pool = BufferPool(capacity=2, name="test-mirror")
    pool.get(pfile, 0)
    pool.get(pfile, 0)
    pool.get(pfile, 1)
    pool.get(pfile, 2)               # eviction
    delta = reg.delta(snap)
    assert delta['bufferpool_hits_total{pool="test-mirror"}'] == 1
    assert delta['bufferpool_misses_total{pool="test-mirror"}'] == 3
    assert delta['bufferpool_evictions_total{pool="test-mirror"}'] == 1
    assert delta['bufferpool_resident_pages{pool="test-mirror"}'] == 2


def test_failed_read_raises_in_its_caller_then_recovers(pfile):
    """A failing read raises in its caller, counts one miss and installs
    nothing, so the next get reads again."""
    pool = BufferPool(capacity=8)
    attempts = []

    def failing_reader(pf: PagedFile, page_id: int, count: int) -> bytes:
        attempts.append(page_id)
        raise StorageError("injected read failure")

    with pytest.raises(StorageError):
        pool.get(pfile, 5, reader=failing_reader)
    assert attempts == [5]
    assert (pool.misses, pool.hits) == (1, 0)
    assert not pool.contains(pfile, 5)
    assert pool.get(pfile, 5) == (bytes([5]) * 8).ljust(64, b"\x00")
    assert pool.misses == 2      # the failed read and the retry
    assert pfile.stats.reads == 1
