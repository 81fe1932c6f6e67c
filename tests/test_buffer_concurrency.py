"""Buffer-pool concurrency tests: hammers, one read per page, failure paths.

The pool's contract under threads (DESIGN.md §10): every operation is
one critical section on the pool lock, so concurrent misses on one page
issue a single disk read (the first caller reads, the rest hit),
hit/miss counters are exact (every get counts exactly one hit or miss;
every *completed* miss is exactly one disk read), puts are never lost,
and capacity is never exceeded.  No product path starts a thread; these
tests are what keeps "thread-safe" a tested word.
"""

import sys
import threading
import time
from random import Random

import pytest

from repro.errors import BufferPoolExhaustedError, StorageError
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
    """Random get/pin/unpin from many threads: counters stay exact.

    Every other thread reads through a decoder, so decoded payloads are
    attached, shared and evicted under the same contention (and, in the
    lock-witness CI job, under the witnessed pool lock).
    """
    pfile = make_file()
    pool = BufferPool(capacity=8)
    gets = [0] * HAMMER_THREADS
    exhausted = [0] * HAMMER_THREADS

    def worker(thread_id: int):
        decoding = thread_id % 2 == 1

        def body():
            rng = Random(1000 + thread_id)
            for _ in range(HAMMER_OPS):
                page_id = rng.randrange(PAGES)
                pin = rng.random() < 0.25
                try:
                    if decoding:
                        first, data = pool.get(pfile, page_id, pin=pin,
                                               decoder=decode_page)
                        assert first == page_id
                    else:
                        data = pool.get(pfile, page_id, pin=pin)
                except BufferPoolExhaustedError:
                    # Only reachable when every frame is pinned by the
                    # other threads; counted so the accounting check
                    # below stays exact either way.
                    exhausted[thread_id] += 1
                    continue
                gets[thread_id] += 1
                assert data == page_bytes(page_id)
                if pin:
                    pool.unpin(pfile, page_id)
                assert pool.resident_pages <= pool.capacity
        return body

    run_threads([worker(i) for i in range(HAMMER_THREADS)])

    # Exact accounting: every get() — successful or exhausted — counts
    # exactly one hit or one miss; every completed miss issued exactly
    # one disk read (coalesced waiters count as hits and issue none;
    # an exhausted miss fails before reading).
    assert pool.hits + pool.misses == sum(gets) + sum(exhausted)
    assert pfile.stats.reads == pool.misses - sum(exhausted)
    assert pool.coalesced <= pool.hits
    assert pool.resident_pages <= pool.capacity
    # Every pin was matched by an unpin, so the pool clears cleanly.
    pool.clear()
    assert pool.resident_pages == 0


def test_hammer_no_lost_puts():
    """Concurrent writers on disjoint pages: every last put survives."""
    pfile = make_file(pages=HAMMER_THREADS * 3)
    pool = BufferPool(capacity=6)
    last_put = {}
    puts = [0] * HAMMER_THREADS

    def worker(thread_id: int):
        # Each thread owns three pages; interleaved gets on all pages
        # churn the LRU so puts are evicted and written back mid-run.
        own = [thread_id * 3 + k for k in range(3)]

        def body():
            rng = Random(thread_id)
            for op in range(HAMMER_OPS // 2):
                if rng.random() < 0.4:
                    page_id = rng.choice(own)
                    payload = bytes([thread_id, op % 256]) * 8
                    pool.put(pfile, page_id, payload)
                    last_put[(thread_id, page_id)] = payload
                    puts[thread_id] += 1
                else:
                    pool.get(pfile, rng.randrange(HAMMER_THREADS * 3))
        return body

    run_threads([worker(i) for i in range(HAMMER_THREADS)])
    # Snapshot before flush and verification issue their own I/O.
    assert pfile.stats.reads == pool.misses
    pool.flush()

    for (thread_id, page_id), payload in last_put.items():
        assert pfile.read_page(page_id) == payload.ljust(64, b"\x00"), \
            f"lost put: thread {thread_id} page {page_id}"
    # No double evictions: every eviction was triggered by exactly one
    # install (a miss or a put on a non-resident page).
    assert pool.resident_pages <= pool.capacity
    assert pool.evictions <= pool.misses + sum(puts)


def test_hammer_payload_never_outlives_its_bytes():
    """Owners overwrite their pages while every thread reads every page
    through a decoder: an owner's next read always decodes its last put.

    A payload attached to a frame after ``put`` replaced the bytes it
    was decoded from (the decode runs outside the pool lock) would be
    served to the owner here as a stale value.
    """
    threads = HAMMER_THREADS
    pfile = make_file(pages=threads * 2)
    pool = BufferPool(capacity=6)

    def decode_stamp(data: bytes):
        time.sleep(0)       # let a put land between read and attach
        return (data[0], data[1])

    def worker(thread_id: int):
        own = [thread_id * 2, thread_id * 2 + 1]

        def body():
            rng = Random(thread_id)
            for op in range(HAMMER_OPS):
                if rng.random() < 0.3:
                    page_id = rng.choice(own)
                    stamp = (100 + thread_id, op % 256)
                    pool.put(pfile, page_id, bytes(stamp) * 8)
                    time.sleep(0)
                    assert pool.get(pfile, page_id,
                                    decoder=decode_stamp) == stamp
                else:
                    page_id = rng.randrange(threads * 2)
                    first, _second = pool.get(pfile, page_id,
                                              decoder=decode_stamp)
                    # Either the build's fill byte or its owner's stamp.
                    assert first in (page_id, 100 + page_id // 2)
                assert pool.resident_pages <= pool.capacity
        return body

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads([worker(i) for i in range(threads)])
    finally:
        sys.setswitchinterval(interval)
    assert pfile.stats.reads == pool.misses


def test_single_flight_coalesces_concurrent_misses():
    """N threads faulting one cold page pay exactly one disk read: the
    first holds the pool across its read, the others then hit."""
    pfile = make_file()
    pool = BufferPool(capacity=8)
    release = threading.Event()
    started = threading.Event()
    reads = []

    def slow_reader(pf: PagedFile, page_id: int) -> bytes:
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


def test_put_during_inflight_read_is_not_lost():
    """A put issued while another thread's slow miss read of the same
    page holds the pool lands after that read's install, and is what
    every later get returns."""
    pfile = make_file()
    pool = BufferPool(capacity=8)
    release = threading.Event()
    started = threading.Event()

    def slow_reader(pf: PagedFile, page_id: int) -> bytes:
        data = pf.read_page(page_id)
        started.set()
        assert release.wait(timeout=5.0)
        return data

    seen = []
    reader = threading.Thread(target=lambda: seen.append(
        pool.get(pfile, 3, reader=slow_reader, decoder=decode_page)))
    reader.start()
    assert started.wait(timeout=5.0)
    fresh = b"\xee" * 16
    writer = threading.Thread(target=lambda: pool.put(pfile, 3, fresh))
    writer.start()
    time.sleep(0.05)
    assert writer.is_alive()            # queued behind the read
    release.set()
    for t in (reader, writer):
        t.join(timeout=5.0)
        assert not t.is_alive()

    assert seen == [(3, page_bytes(3))]     # the read saw the disk's bytes
    assert pool.get(pfile, 3) == fresh
    assert pool.get(pfile, 3, decoder=decode_page) == (0xEE, fresh)
    assert pool.resident_pages == 1
    pool.flush()
    assert pfile.read_page(3) == fresh.ljust(64, b"\x00")


def test_hammer_puts_evicted_under_slow_fills_stay_coherent():
    """Owners overwrite their pages in a pool so small that a put is
    evicted within a few operations, while every fill's decoder yields
    between the read and the install: an owner always reads back its own
    last put, and at the end pool and file agree on every page."""
    threads = HAMMER_THREADS
    pfile = make_file(pages=threads * 2)
    pool = BufferPool(capacity=3)
    last_put = {}

    def decode_slowly(data: bytes):
        time.sleep(0)       # a put (and its eviction) may land here
        return (data[0], data[1])

    def worker(thread_id: int):
        own = [thread_id * 2, thread_id * 2 + 1]

        def body():
            rng = Random(500 + thread_id)
            for op in range(HAMMER_OPS):
                if rng.random() < 0.3:
                    page_id = rng.choice(own)
                    stamp = (100 + thread_id, op % 256)
                    pool.put(pfile, page_id, bytes(stamp) * 8)
                    last_put[page_id] = stamp
                    # Churn so the put is (usually) written back before
                    # it is read again.
                    for _ in range(3):
                        pool.get(pfile, rng.randrange(threads * 2))
                    assert pool.get(pfile, page_id,
                                    decoder=decode_slowly) == stamp
                else:
                    page_id = rng.randrange(threads * 2)
                    first, _second = pool.get(pfile, page_id,
                                              decoder=decode_slowly)
                    assert first in (page_id, 100 + page_id // 2)
                assert pool.resident_pages <= pool.capacity
        return body

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads([worker(i) for i in range(threads)])
    finally:
        sys.setswitchinterval(interval)
    assert pool.evictions > HAMMER_OPS
    for page_id in range(threads * 2):
        stamp = last_put.get(page_id, (page_id, page_id))
        assert pool.get(pfile, page_id, decoder=decode_slowly) == stamp
    pool.flush()
    for page_id, stamp in last_put.items():
        assert pfile.read_page(page_id)[:2] == bytes(stamp)


def test_hammer_recalled_plans_are_never_stale():
    """Threads read small page sets and remember them as plans (the
    answer being the very ``bytes`` objects read) or recall them, while
    others overwrite plan pages and churn the pool into evicting: a
    recalled plan's frames still hold, under the pool lock, the objects
    it was recorded over — a ``put`` or eviction after the ``remember``
    would have replaced them — and ``hits + misses`` is exactly the
    page reads answered, by ``get`` or by recall."""
    pfile = make_file()
    pool = BufferPool(capacity=12)
    fid = pfile.file_id
    plans = [(0, 1, 2), (2, 3), (4, 5, 4, 6), (7,)]
    answered = [0] * HAMMER_THREADS
    recalled = [0] * HAMMER_THREADS
    disturbing = threading.Event()
    disturbing.set()

    def planner(thread_id: int):
        def body():
            rng = Random(2000 + thread_id)
            while disturbing.is_set():
                pages = rng.choice(plans)
                keys = [(fid, page) for page in pages]
                with pool._lock:        # recall + check: one atomic step
                    answer = pool.recall(pages)
                    if answer is not None:
                        for key, data in zip(keys, answer):
                            assert pool._frames[key].data is data, key
                if answer is not None:
                    recalled[thread_id] += 1
                else:
                    generation = pool.generation
                    answer = tuple(pool.get(pfile, page) for page in pages)
                    pool.remember(pages, generation, keys, answer)
                answered[thread_id] += len(pages)
        return body

    def disturber(thread_id: int):
        def body():
            rng = Random(3000 + thread_id)
            try:
                for op in range(HAMMER_OPS):
                    if rng.random() < 0.5:
                        pool.put(pfile, rng.randrange(8),
                                 bytes([thread_id, op % 256]) * 8)
                    else:               # past capacity: an eviction
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
    assert pool.resident_pages <= pool.capacity


def test_failed_read_raises_in_its_caller_then_recovers():
    """A failing read raises in its caller, counts one miss and installs
    nothing, so the next get reads again."""
    pfile = make_file()
    pool = BufferPool(capacity=8)
    attempts = []

    def failing_reader(pf: PagedFile, page_id: int) -> bytes:
        attempts.append(page_id)
        raise StorageError("injected read failure")

    with pytest.raises(StorageError):
        pool.get(pfile, 5, reader=failing_reader, pin=True)
    assert attempts == [5]
    assert (pool.misses, pool.hits) == (1, 0)
    assert not pool.contains(pfile, 5)
    assert pool.get(pfile, 5) == page_bytes(5)
    assert pool.misses == 2      # the failed read and the retry
    assert pfile.stats.reads == 1
    pool.clear()                 # the failed get left no pin behind


def test_exhausted_error_leaves_pinned_frames_intact():
    """All frames pinned: the faulting thread gets the typed error and
    no pinned frame is evicted out from under its holder."""
    pfile = make_file()
    pool = BufferPool(capacity=2)
    pool.get(pfile, 0, pin=True)
    pool.get(pfile, 1, pin=True)

    caught = []

    def fault():
        try:
            pool.get(pfile, 2)
        except BufferPoolExhaustedError as exc:
            caught.append(exc)

    run_threads([fault])
    assert len(caught) == 1
    assert pool.contains(pfile, 0) and pool.contains(pfile, 1)
    pool.unpin(pfile, 0)
    pool.unpin(pfile, 1)
    assert pool.get(pfile, 2) == page_bytes(2)
