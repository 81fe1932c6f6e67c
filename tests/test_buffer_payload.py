"""Decoded payloads on buffer-pool frames (``BufferPool.get(decoder=)``).

The contract (DESIGN.md §10): a frame's payload is valid exactly as long
as the frame's bytes object is, it is decoded at most once per residency
however many sessions read the page, a raising decoder caches nothing,
and every counter moves exactly as it does without a decoder.
"""

import threading
import time
from random import Random

import pytest

from repro.errors import BufferPoolError, SerializationError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile

PAGE_SIZE = 64


class CountingDecoder:
    """``bytes -> (first byte, length)``, counting calls per first byte."""

    def __init__(self):
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, data):
        with self._lock:
            self.calls.append(data[0])
        return (data[0], len(data))


def make_file(pages=10, name="payload"):
    pf = PagedFile(name, page_size=PAGE_SIZE, disk=DiskModel(),
                   stats=IOStats())
    for i in range(pages):
        pf.append_page(bytes([i]) * 8)
    pf.stats.reset()
    return pf


@pytest.fixture()
def pfile():
    return make_file()


def test_decoded_once_across_hits_and_sessions(pfile):
    pool = BufferPool(capacity=4)
    decoder = CountingDecoder()
    first = pool.get(pfile, 3, decoder=decoder)
    assert first == (3, PAGE_SIZE)
    for _ in range(5):
        assert pool.get(pfile, 3, decoder=decoder) is first

    # A second "session": another thread sharing the pool gets the very
    # same object, without decoding.
    seen = []
    other = threading.Thread(
        target=lambda: seen.append(pool.get(pfile, 3, decoder=decoder)))
    other.start()
    other.join(timeout=5.0)
    assert not other.is_alive()
    assert seen[0] is first
    assert decoder.calls == [3]
    assert (pool.hits, pool.misses) == (6, 1)


def test_bytes_callers_and_decoder_callers_share_a_frame(pfile):
    pool = BufferPool(capacity=4)
    decoder = CountingDecoder()
    raw = pool.get(pfile, 2)
    assert isinstance(raw, bytes)
    assert pool.get(pfile, 2, decoder=decoder) == (2, PAGE_SIZE)
    assert pool.get(pfile, 2) is raw            # still the bytes
    assert pool.get(pfile, 2, decoder=decoder) == (2, PAGE_SIZE)
    assert decoder.calls == [2]
    assert pfile.stats.reads == 1


def test_put_drops_the_payload_and_new_bytes_are_decoded(pfile):
    pool = BufferPool(capacity=4)
    decoder = CountingDecoder()
    assert pool.get(pfile, 1, decoder=decoder) == (1, PAGE_SIZE)
    pool.put(pfile, 1, bytes([200]) * 4)
    assert pool.get(pfile, 1, decoder=decoder) == (200, 4)
    assert pool.get(pfile, 1, decoder=decoder) == (200, 4)
    assert decoder.calls == [1, 200]


def test_decoded_again_after_eviction_and_reread(pfile):
    pool = BufferPool(capacity=2)
    decoder = CountingDecoder()
    pool.get(pfile, 0, decoder=decoder)
    pool.get(pfile, 1, decoder=decoder)
    pool.get(pfile, 2, decoder=decoder)          # evicts page 0
    assert not pool.contains(pfile, 0)
    assert pool.get(pfile, 0, decoder=decoder) == (0, PAGE_SIZE)
    assert decoder.calls == [0, 1, 2, 0]
    assert pool.misses == 4
    assert pfile.stats.reads == 4


def test_clear_drops_payloads(pfile):
    pool = BufferPool(capacity=4)
    decoder = CountingDecoder()
    pool.get(pfile, 0, decoder=decoder)
    pool.clear()
    pool.get(pfile, 0, decoder=decoder)
    assert decoder.calls == [0, 0]


def test_raising_decoder_caches_nothing_and_next_get_retries(pfile):
    pool = BufferPool(capacity=4)
    attempts = []

    def flaky(data):
        attempts.append(data[0])
        if len(attempts) < 3:
            raise SerializationError("injected decode failure")
        return ("ok", data[0])

    with pytest.raises(SerializationError):
        pool.get(pfile, 4, decoder=flaky)        # miss path
    with pytest.raises(SerializationError):
        pool.get(pfile, 4, decoder=flaky)        # hit path
    # The page itself was read and stays resident; only decoding failed.
    assert pool.contains(pfile, 4)
    assert (pool.hits, pool.misses) == (1, 1)
    assert pool.get(pfile, 4, decoder=flaky) == ("ok", 4)
    assert pool.get(pfile, 4, decoder=flaky) == ("ok", 4)
    assert attempts == [4, 4, 4]
    assert pfile.stats.reads == 1


def test_pinned_get_returns_payload_and_pins(pfile):
    pool = BufferPool(capacity=2)
    decoder = CountingDecoder()
    assert pool.get(pfile, 0, pin=True, decoder=decoder) == (0, PAGE_SIZE)
    assert pool.get(pfile, 0, pin=True, decoder=decoder) == (0, PAGE_SIZE)
    pool.get(pfile, 1)
    pool.get(pfile, 2)                           # must evict 1, not 0
    assert pool.contains(pfile, 0)
    pool.unpin(pfile, 0)
    pool.unpin(pfile, 0)
    with pytest.raises(BufferPoolError):
        pool.unpin(pfile, 0)                     # exactly two pins taken
    assert decoder.calls == [0]


def test_decoder_returning_none_is_one_get_and_one_pin(pfile):
    """``None`` is a legal payload (never cached): the miss counts and
    pins once."""
    pool = BufferPool(capacity=2)
    assert pool.get(pfile, 0, pin=True, decoder=lambda data: None) is None
    assert (pool.hits, pool.misses) == (0, 1)
    pool.unpin(pfile, 0)
    with pytest.raises(BufferPoolError):
        pool.unpin(pfile, 0)


def test_concurrent_callers_share_one_decode(pfile):
    """Threads faulting one page through a decoder all receive the same
    payload object: the page is read once and decoded once."""
    pool = BufferPool(capacity=4)
    decoder = CountingDecoder()
    release = threading.Event()
    started = threading.Event()

    def slow_reader(pf, page_id):
        started.set()
        assert release.wait(timeout=5.0)
        return pf.read_page(page_id)

    results = []

    def fault(pin):
        def body():
            results.append(pool.get(pfile, 3, pin=pin, reader=slow_reader,
                                    decoder=decoder))
        return body

    threads = [threading.Thread(target=fault(pin))
               for pin in (False, False, True, False)]
    threads[0].start()
    assert started.wait(timeout=5.0)    # the first caller holds the pool
    for t in threads[1:]:
        t.start()
    time.sleep(0.05)                    # the others queue on its lock
    release.set()
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()

    assert results == [(3, PAGE_SIZE)] * 4
    assert all(result is results[0] for result in results)
    assert (pool.misses, pool.hits) == (1, 3)
    assert pfile.stats.reads == 1
    assert decoder.calls == [3]
    assert pool.get(pfile, 3, decoder=decoder) is results[0]
    assert decoder.calls == [3]
    pool.unpin(pfile, 3)


def _access_sequence(seed, length=600, pages=10):
    rng = Random(seed)
    ops = []
    for _ in range(length):
        roll = rng.random()
        page = rng.randrange(pages)
        if roll < 0.80:
            ops.append(("get", page))
        elif roll < 0.92:
            ops.append(("pinned", page))
        else:
            ops.append(("put", page))
    return ops


def _counters(pool):
    return (pool.hits, pool.misses, pool.evictions, pool.resident_pages)


@pytest.mark.parametrize("policy", ["lru", "2q"])
def test_counters_identical_with_and_without_decoder(policy):
    """Same access sequence, bytes pool vs decoding pool: every counter,
    the resident set and the physical reads agree step by step."""
    plain_file, decoded_file = make_file(name="plain"), make_file(name="dec")
    plain = BufferPool(capacity=4, policy=policy, name=f"plain-{policy}")
    decoding = BufferPool(capacity=4, policy=policy, name=f"dec-{policy}")
    decoder = CountingDecoder()
    for step, (op, page) in enumerate(_access_sequence(seed=11)):
        if op == "put":
            payload = bytes([100 + step % 100]) * 4
            plain.put(plain_file, page, payload)
            decoding.put(decoded_file, page, payload)
        else:
            pin = op == "pinned"
            data = plain.get(plain_file, page, pin=pin)
            got = decoding.get(decoded_file, page, pin=pin, decoder=decoder)
            assert got == (data[0], len(data))
            if pin:
                plain.unpin(plain_file, page)
                decoding.unpin(decoded_file, page)
        assert _counters(plain) == _counters(decoding), (step, op, page)
        assert plain_file.stats.reads == decoded_file.stats.reads
    assert plain.evictions > 0
    # Far fewer decodes than decoder gets: at most one per residency.
    puts = sum(1 for op, _ in _access_sequence(seed=11) if op == "put")
    assert len(decoder.calls) <= decoding.misses + puts
    assert len(decoder.calls) < decoding.hits + decoding.misses
