"""Blob object store tests."""

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


def test_payload_roundtrip():
    store = make_store()
    payload = bytes(range(200)) * 3
    ref = store.put(len(payload), payload=payload)
    data = store.pfile.read_run(ref.first_page, ref.num_pages)
    assert data[:len(payload)] == payload


def test_blobs_allocated_contiguously():
    store = make_store()
    a = store.put(256)
    b = store.put(256)
    assert b.first_page == a.first_page + a.num_pages
