"""Buffer-pool concurrency tests: hammers, one read per page, failure paths.

The pool's contract under threads (DESIGN.md §10): every operation is
one critical section on the pool lock, so concurrent misses on one page
issue a single disk read (the first caller reads, the rest hit),
hit/miss counters are exact (every get counts exactly one hit or miss;
every *completed* miss is exactly one disk read), a payload never
outlives the frame it was made from, a recalled plan's pages hold the
bytes it was made of, and capacity is never exceeded.  No product path
starts a thread; these tests are what keeps "thread-safe" a tested word.
"""

import sys
import threading
import time
from random import Random

import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile

PAGES = 24
HAMMER_THREADS = 8
HAMMER_OPS = 400


def page_bytes(page_id: int, page_size: int = 64) -> bytes:
    """What read_page returns: the stored payload, zero-padded."""
    return (bytes([page_id]) * 16).ljust(page_size, b"\x00")


def make_file(name: str = "conc", pages: int = PAGES) -> PagedFile:
    pf = PagedFile(name, page_size=64, disk=DiskModel(), stats=IOStats())
    for i in range(pages):
        pf.append_page(bytes([i]) * 16)
    pf.stats.reset()
    return pf


def run_threads(workers):
    """Start, join, and re-raise the first failure from any thread."""
    errors = []

    def guarded(fn):
        def body():
            try:
                fn()
            except Exception as exc:  # repro: ignore[RPR008]
                errors.append(exc)
        return body

    threads = [threading.Thread(target=guarded(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def decode_page(data: bytes):
    """A stand-in page decoder: ``(first byte, the bytes)``."""
    return (data[0], data)


def test_hammer_exact_accounting_under_contention():
    """Random gets from many threads: counters stay exact.

    Every other thread reads through a decoder, so decoded payloads are
    attached, shared and evicted under the same contention.
    """
    pfile = make_file()
    pool = BufferPool(capacity=8)
    gets = [0] * HAMMER_THREADS

    def worker(thread_id: int):
        decoding = thread_id % 2 == 1

        def body():
            rng = Random(1000 + thread_id)
            for _ in range(HAMMER_OPS):
                page_id = rng.randrange(PAGES)
                if decoding:
                    first, data = pool.get(pfile, page_id,
                                           decoder=decode_page)
                    assert first == page_id
                else:
                    data = pool.get(pfile, page_id)
                gets[thread_id] += 1
                assert data == page_bytes(page_id)
                assert pool.resident_pages <= pool.capacity
        return body

    run_threads([worker(i) for i in range(HAMMER_THREADS)])

    # Exact accounting: every get() counts exactly one hit or one miss;
    # every miss issued exactly one disk read.
    assert pool.hits + pool.misses == sum(gets)
    assert pfile.stats.reads == pool.misses
    assert pool.evictions == pool.misses - pool.resident_pages
    assert pool.coalesced <= pool.hits
    assert pool.resident_pages <= pool.capacity
    pool.clear()
    assert pool.resident_pages == 0


def test_hammer_payload_never_outlives_its_bytes():
    """Every thread reads every page through a decoder in a pool that
    evicts on most reads: the payload a get returns is always the one
    decoded from the ``bytes`` object its frame holds right now.

    A payload that survived its frame's eviction (attached to the page's
    next frame, or kept by key) would be served here with another
    residency's bytes inside it.
    """
    threads = HAMMER_THREADS
    pfile = make_file(pages=threads * 2)
    pool = BufferPool(capacity=6)
    fid = pfile.file_id
    decodes = []

    def decode_stamp(data: bytes):
        time.sleep(0)       # the decode runs inside the pool's one section
        decodes.append(data[0])
        return (data[0], data)

    def worker(thread_id: int):
        def body():
            rng = Random(thread_id)
            for _ in range(HAMMER_OPS):
                page_id = rng.randrange(threads * 2)
                with pool._lock:        # get + check: one atomic step
                    payload = pool.get(pfile, page_id,
                                       decoder=decode_stamp)
                    frame = pool._frames[(fid, page_id)]
                    assert frame.payload is payload
                    assert payload[1] is frame.data
                assert payload == (page_id, page_bytes(page_id))
                assert pool.resident_pages <= pool.capacity
        return body

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads([worker(i) for i in range(threads)])
    finally:
        sys.setswitchinterval(interval)
    assert pool.evictions > HAMMER_OPS
    assert pfile.stats.reads == pool.misses
    # Decoded once per residency: every miss decoded, no hit did.
    assert len(decodes) == pool.misses


def test_single_flight_coalesces_concurrent_misses():
    """N threads faulting one cold page pay exactly one disk read: the
    first holds the pool across its read, the others then hit."""
    pfile = make_file()
    pool = BufferPool(capacity=8)
    release = threading.Event()
    started = threading.Event()
    reads = []

    def slow_reader(pf: PagedFile, page_id: int, count: int) -> bytes:
        assert count == 1
        started.set()
        assert release.wait(timeout=5.0)
        reads.append(page_id)
        return pf.read_page(page_id)

    results = []

    def fault():
        results.append(pool.get(pfile, 3, reader=slow_reader))

    threads = [threading.Thread(target=fault) for _ in range(4)]
    threads[0].start()
    assert started.wait(timeout=5.0)  # the first caller is inside its read
    for t in threads[1:]:
        t.start()
    time.sleep(0.05)                  # the others queue on the pool lock
    assert (pool.misses, pool.hits) == (1, 0)
    release.set()
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()

    assert results == [page_bytes(3)] * 4
    assert reads == [3]          # the reader ran exactly once
    assert pool.misses == 1
    assert pool.hits == 3
    assert pfile.stats.reads == 1


def test_hammer_recalled_plans_are_never_stale():
    """Threads read small page sets and remember them as plans (the
    answer being the bytes read) or recall them, while another churns
    the pool into evicting.  A recall reads back, under the pool lock,
    whatever of its plan was evicted: right after it every page of the
    plan is resident and holds the bytes the answer was made of.  And
    ``hits + misses`` is exactly the page reads answered — by ``get`` or
    inside a recall — each miss one read of the file."""
    pfile = make_file()
    pool = BufferPool(capacity=12)
    fid = pfile.file_id
    files = [(pfile, None)]
    plans = [(0, 1, 2), (2, 3), (4, 5, 4, 6), (7,)]
    answered = [0] * HAMMER_THREADS
    recalled = [0] * HAMMER_THREADS
    read_back = [0] * HAMMER_THREADS
    disturbing = threading.Event()
    disturbing.set()

    def planner(thread_id: int):
        def body():
            rng = Random(2000 + thread_id)
            while disturbing.is_set():
                pages = rng.choice(plans)
                keys = [(fid, page) for page in pages]
                with pool._lock:        # recall + check: one atomic step
                    hit = pool.recall(pages, files)
                    if hit is not None:
                        answer, pages_read = hit
                        for key, data in zip(keys, answer):
                            assert pool._frames[key].data == data, key
                if hit is not None:
                    recalled[thread_id] += 1
                    read_back[thread_id] += pages_read
                else:
                    answer = tuple(pool.get(pfile, page) for page in pages)
                    pool.remember(pages, keys, answer)
                answered[thread_id] += len(pages)
        return body

    def disturber(thread_id: int):
        def body():
            rng = Random(3000 + thread_id)
            try:
                for _ in range(HAMMER_OPS):
                    # Past capacity: an eviction, often of a plan page.
                    pool.get(pfile, 8 + rng.randrange(PAGES - 8))
                    answered[thread_id] += 1
                    time.sleep(0.0001)  # let a plan live now and then
            finally:
                disturbing.clear()
        return body

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads([planner(i) for i in range(HAMMER_THREADS - 1)]
                    + [disturber(HAMMER_THREADS - 1)])
    finally:
        sys.setswitchinterval(interval)
    assert pool.hits + pool.misses == sum(answered)
    assert pfile.stats.reads == pool.misses
    assert pool.evictions > HAMMER_OPS // 4
    assert sum(recalled) > HAMMER_OPS
    assert sum(read_back) > 0
    assert pool.resident_pages <= pool.capacity


def test_failed_read_raises_in_its_caller_then_recovers():
    """A failing read raises in its caller, counts one miss and installs
    nothing, so the next get reads again."""
    pfile = make_file()
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
    assert pool.get(pfile, 5) == page_bytes(5)
    assert pool.misses == 2      # the failed read and the retry
    assert pfile.stats.reads == 1
