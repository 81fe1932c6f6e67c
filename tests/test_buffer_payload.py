"""Decoded payloads on buffer-pool frames (``BufferPool.get(decoder=)``).

The contract (DESIGN.md §10): a frame's payload is valid exactly as long
as the frame is, it is decoded at most once per residency however many
sessions read the page, a raising decoder caches nothing, and every
counter moves exactly as it does without a decoder.
"""

from random import Random

import pytest

from repro.errors import SerializationError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile

PAGE_SIZE = 64


class CountingDecoder:
    """``bytes -> (first byte, length)``, counting calls per first byte."""

    def __init__(self):
        self.calls = []

    def __call__(self, data):
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

    # A second "session" sharing the pool gets the very same object,
    # without decoding.
    second = pool.get(pfile, 3, decoder=decoder)
    assert second is first
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


def test_decoder_returning_none_is_one_get(pfile):
    """``None`` is a legal payload (never cached): the miss counts
    once, and every later call is one hit and one more decode."""
    pool = BufferPool(capacity=2)
    calls = []

    def decoder(data):
        calls.append(data[0])           # and returns None

    assert pool.get(pfile, 0, decoder=decoder) is None
    assert (pool.hits, pool.misses) == (0, 1)
    assert pool.get(pfile, 0, decoder=decoder) is None
    assert (pool.hits, pool.misses) == (1, 1)
    assert calls == [0, 0]
    assert pfile.stats.reads == 1


def _access_sequence(seed, length=600, pages=10):
    rng = Random(seed)
    return [rng.randrange(pages) for _ in range(length)]


def _counters(pool):
    return (pool.hits, pool.misses, pool.evictions, pool.resident_pages)


@pytest.mark.parametrize("policy", ["2q"])
def test_counters_identical_with_and_without_decoder(policy):
    """Same access sequence, bytes pool vs decoding pool: every counter,
    the resident set and the physical reads agree step by step.  Under
    this eviction churn the payload a get returns is always the one
    decoded from the ``bytes`` object its frame holds right now: one that
    outlived its frame would carry another residency's bytes."""
    plain_file, decoded_file = make_file(name="plain"), make_file(name="dec")
    plain = BufferPool(capacity=4, name=f"plain-{policy}")
    decoding = BufferPool(capacity=4, name=f"dec-{policy}")
    decodes = []

    def decoder(data):
        decodes.append(data[0])
        return (data[0], data)

    for step, page in enumerate(_access_sequence(seed=11)):
        data = plain.get(plain_file, page)
        payload = decoding.get(decoded_file, page, decoder=decoder)
        assert payload == (data[0], data)
        frame = decoding._frames[(decoded_file.file_id, page)]
        assert frame.payload is payload
        assert payload[1] is frame.data
        assert _counters(plain) == _counters(decoding), (step, page)
        assert plain_file.stats.reads == decoded_file.stats.reads
    assert plain.evictions > 0
    # Far fewer decodes than decoder gets: exactly one per residency.
    assert len(decodes) == decoding.misses
    assert len(decodes) < decoding.hits + decoding.misses
