"""Blob object store tests."""

import math

import pytest

from repro.errors import StorageError
from repro.storage.disk import DiskModel, IOStats
from repro.storage.objectstore import ObjectStore
from repro.storage.pagedfile import PagedFile


def make_store(page_size=256):
    pf = PagedFile("blobs", page_size=page_size,
                   disk=DiskModel(seek_ms=10.0, transfer_ms=1.0,
                                  readahead_pages=1),
                   stats=IOStats())
    return ObjectStore(pf)


def test_put_and_fetch_counts_pages():
    store = make_store()
    ref = store.put(1000)          # 1000 bytes / 256 page -> 4 pages
    assert ref.num_pages == 4
    store.pfile.stats.reset()
    assert store.fetch_prefix(ref.blob_id, ref.logical_bytes) == 4
    assert store.pfile.stats.reads == 4
    assert store.pfile.stats.seeks == 1
    assert store.pfile.stats.sequential_reads == 3


def test_zero_byte_blob_occupies_one_page():
    store = make_store()
    ref = store.put(0)
    assert ref.num_pages == 1


def test_fetch_prefix_costs_proportional_pages():
    store = make_store()
    ref = store.put(2560)           # 10 pages
    assert ref.num_pages == 10
    store.pfile.stats.reset()
    pages = store.fetch_prefix(ref.blob_id, 512)
    assert pages == 2
    assert store.pfile.stats.reads == 2


def test_fetch_prefix_clamps_to_blob():
    store = make_store()
    ref = store.put(256)
    pages = store.fetch_prefix(ref.blob_id, 10 ** 6)
    assert pages == ref.num_pages


def test_fetch_prefix_minimum_one_page():
    store = make_store()
    ref = store.put(1000)
    assert store.fetch_prefix(ref.blob_id, 1) == 1


def test_fetch_prefix_reads_only_the_suffix_beyond_what_is_held():
    store = make_store()
    ref = store.put(2560)           # 10 pages
    store.put(256)                  # a neighbour the head can land on
    store.pfile.stats.reset()
    assert store.fetch_prefix(ref.blob_id, 1000, held_bytes=300) == 2
    assert store.pfile.stats.reads == 2
    # The suffix starts at page 2 of the blob: one seek, one sequential.
    assert (store.pfile.stats.seeks, store.pfile.stats.sequential_reads) \
        == (1, 1)
    # A finer level that ends inside the held pages reads nothing.
    assert store.fetch_prefix(ref.blob_id, 500, held_bytes=300) == 0
    assert store.fetch_prefix(ref.blob_id, 100, held_bytes=2560) == 0
    # A held prefix covers at least one page, even of zero bytes.
    assert store.fetch_prefix(ref.blob_id, 256, held_bytes=0) == 0
    assert store.pfile.stats.reads == 2
    with pytest.raises(StorageError):
        store.fetch_prefix(ref.blob_id, 10, held_bytes=-1)


def test_unknown_blob():
    store = make_store()
    with pytest.raises(StorageError):
        store.fetch_prefix(99, 1)


def test_invalid_args():
    store = make_store()
    with pytest.raises(StorageError):
        store.put(-1)
    ref = store.put(10)
    with pytest.raises(StorageError):
        store.fetch_prefix(ref.blob_id, -5)


def test_totals():
    store = make_store()
    store.put(100)
    store.put(300)
    assert store.num_blobs == 2
    assert store.logical_bytes_total == 400


def test_blobs_allocated_contiguously():
    store = make_store()
    a = store.put(256)
    b = store.put(256)
    assert b.first_page == a.first_page + a.num_pages


def float_prefix_pages(blob, logical_bytes, page_size):
    """The float spelling the integer ceiling replaced."""
    pages = math.ceil(max(min(logical_bytes, blob.logical_bytes), 1)
                      / page_size)
    return min(pages, blob.num_pages)


@pytest.mark.parametrize("blob_size", [0, 1, 255, 256, 257, 1000, 2560])
def test_prefix_pages_equal_the_float_formula(blob_size):
    """Integer pages for 0, 1, a page ± 1, the blob's size and beyond —
    what the float formula gave at every size it spells exactly."""
    store = make_store(page_size=256)
    blob = store.put(blob_size)
    assert blob.num_pages == max(math.ceil(blob_size / 256), 1)
    for size in (0, 1, 255, 256, 257, blob_size - 1, blob_size,
                 blob_size + 1, 10 * blob_size + 1000):
        if size < 0:                # blob_size - 1 of an empty blob
            continue
        pages = store._prefix_pages(blob, size)
        assert type(pages) is int
        assert pages == float_prefix_pages(blob, size, 256), size
        assert store.fetch_prefixes([(blob.blob_id, size)]) == pages
    with pytest.raises(StorageError, match="negative prefix size"):
        store._prefix_pages(blob, -1)


def test_prefix_pages_stay_exact_past_the_float_mantissa():
    """``2**53 + 1`` bytes round to ``2**53`` as a float, so the float
    spelling under-counts by one page; the integer one does not."""
    store = make_store(page_size=4096)
    size = 2 ** 53 + 1
    blob = store.put(size)
    assert blob.num_pages == 2 ** 41 + 1
    assert store._prefix_pages(blob, size) == 2 ** 41 + 1
    assert store._prefix_pages(blob, size - 1) == 2 ** 41     # 2**53
    assert float_prefix_pages(blob, size, 4096) == 2 ** 41
