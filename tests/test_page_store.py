"""The in-memory page store holds what was written.

A page written shorter than ``page_size`` is held unpadded and read back
as the full page image — payload plus a zero tail — with the CRC of that
padded image; a page never written reads as the file's one zero page.
Fault injection still sees full page images, so flips and tears land in
page coordinates.  And the simulated clock refuses a negative, infinite
or NaN delay, any of which would poison ``IOStats.simulated_ms``.
"""

import math
import zlib

import pytest

from repro.errors import PageCorruptError, StorageError
from repro.storage.disk import FREE_DISK, IOStats
from repro.storage.faults import FaultInjector, FaultPlan, FaultRule
from repro.storage.pagedfile import PagedFile

PAGE = 64
SHORT = bytes(range(1, 41))     # longer than half a page: a tear shows
FULL = bytes(range(100, 100 + PAGE))


def make_file(name="vpages-test"):
    return PagedFile(name, page_size=PAGE, disk=FREE_DISK, stats=IOStats())


def padded(payload):
    return payload + bytes(PAGE - len(payload))


def written(*payloads):
    """A file holding ``payloads`` at pages 0.., plus one page never
    written after them."""
    pf = make_file()
    for payload in payloads:
        pf.append_page(payload)
    pf.allocate()
    return pf


@pytest.mark.parametrize("fixture", ["small_env", "small_env_packed"])
def test_a_built_world_holds_only_what_was_written(request, fixture):
    """The stored bytes of every page file are a few percent of the
    page-unit size the accounting charges (``byte_size``)."""
    env = request.getfixturevalue(fixture)
    held = sum(len(image) for pf in env.files()
               for image in pf._mem.values())
    size = sum(pf.byte_size for pf in env.files())
    assert held <= 0.05 * size


def test_short_full_and_unwritten_pages_read_as_full_images():
    pf = written(SHORT, FULL)
    images = [padded(SHORT), FULL, bytes(PAGE)]
    assert [len(image) for image in pf._mem.values()] == [len(SHORT), PAGE]
    for page_id, image in enumerate(images):
        assert pf.read_page(page_id) == image
    assert pf.read_run(0, 3) == b"".join(images)
    assert pf.read_run(1, 2) == b"".join(images[1:])


def test_an_unwritten_page_is_one_shared_zero_page():
    pf = make_file()
    first = pf.allocate_many(3)
    pages = [pf.read_page(first + i) for i in range(3)]
    assert pages[0] == bytes(PAGE)
    assert all(page is pages[0] for page in pages)
    assert pf.read_page(first) is pages[0]


def test_a_short_write_records_the_padded_image_crc():
    pf = written(SHORT, FULL)
    assert pf._crcs[0] == zlib.crc32(padded(SHORT))
    assert pf._crcs[1] == zlib.crc32(FULL)


class RecordingInjector(FaultInjector):
    """Keeps every image its read filter hands back."""

    def __init__(self, plan, seed):
        super().__init__(plan, seed=seed)
        self.images = []

    def filter_read(self, pfile, page_id, data):
        data = super().filter_read(pfile, page_id, data)
        self.images.append(data)
        return data


def flipped_reads(pf, seed):
    injector = RecordingInjector(FaultPlan("rot", (
        FaultRule("bit-flip", rate=1.0),)), seed)
    injector.install(pf)
    try:
        for _round in range(5):
            for page_id in range(pf.num_pages):
                with pytest.raises(PageCorruptError):
                    pf.read_page(page_id)
    finally:
        injector.uninstall()
    return injector.images


@pytest.mark.parametrize("seed", [0, 7])
def test_a_bit_flip_lands_where_it_lands_on_a_padded_page(seed):
    """An injector installed after the build flips the same bits of a
    held-short page as of the same page written padded, anywhere in the
    page, tail included."""
    short = flipped_reads(written(SHORT, FULL), seed)
    full = flipped_reads(written(padded(SHORT), FULL), seed)
    assert short == full
    assert all(len(image) == PAGE for image in short)
    images = [padded(SHORT), FULL, bytes(PAGE)] * 5
    flipped = {next(i for i in range(PAGE) if got[i] != want[i])
               for got, want in zip(short, images)}
    assert max(flipped) >= len(SHORT)


def test_a_torn_short_write_tears_the_padded_page_and_fails_its_read():
    pf = make_file()
    page_id = pf.allocate()
    injector = FaultInjector(FaultPlan("tear", (
        FaultRule("torn-write", rate=1.0),)), seed=0)
    injector.install(pf)
    try:
        pf.write_page(page_id, SHORT)
        half = PAGE // 2
        assert pf._mem[page_id] == SHORT[:half] + bytes(PAGE - half)
        with pytest.raises(PageCorruptError):
            pf.read_page(page_id)
    finally:
        injector.uninstall()


# -- the simulated clock -------------------------------------------------------

BAD_DELAYS = [math.nan, math.inf, -1.0]


@pytest.mark.parametrize("ms", BAD_DELAYS)
def test_charge_delay_refuses_a_delay_that_is_not_finite_and_non_negative(ms):
    pf = make_file()
    with pytest.raises(StorageError):
        pf.charge_delay_ms(ms)
    assert pf.stats.simulated_ms == 0.0


@pytest.mark.parametrize("ms", BAD_DELAYS)
def test_a_latency_rule_refuses_a_delay_that_is_not_finite_and_non_negative(
        ms):
    with pytest.raises(StorageError):
        FaultRule("latency", latency_ms=ms)
