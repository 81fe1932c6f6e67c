"""Packed delta V-page codec tests: round trips, delta designation,
corruption (bit flips, torn writes, truncation, bad headers, deep
reference chains) — nothing may ever decode silently wrong — plus the
packed build's search-equivalence and corruption-degradation contracts
over the shared small environment."""

import random
import struct
import zlib

import pytest

import repro.storage.vpagecodec as vpagecodec_module
from repro.core.search import HDoVSearch
from repro.errors import PageCorruptError, SchemeError
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile
from repro.storage.vpagecodec import (PACKED_VERSION, PackedDeltaVPageCodec,
                                      RawVPageCodec, _encode_varint)

PAGE_SIZE = 256


class FileReader:
    """Minimal PageReader over a PagedFile (no scheme cache)."""

    def __init__(self, pf):
        self._pf = pf

    def vpage_page(self, page_id):
        return self._pf.read_page(page_id)


def make_file(name="packed-v"):
    return PagedFile(name, page_size=PAGE_SIZE,
                     disk=DiskModel(seek_ms=0.0, transfer_ms=0.0),
                     stats=IOStats())


def entries_for(cell_id, count=6):
    return [(round(0.1 + 0.05 * ((i + cell_id) % 7), 4), i + 1)
            for i in range(count)]


def build_stream(cells, neighbors=None):
    """Write one V-page per cell at node offset 0; returns
    (codec, file, {cell: pointer})."""
    pf = make_file()
    codec = PackedDeltaVPageCodec(PAGE_SIZE, neighbors or {},
                                  scheme="test")
    pointers = {}
    for cell_id, ventries in cells.items():
        codec.begin_cell(cell_id)
        pointers[cell_id] = codec.append(pf, cell_id, 0, ventries)
    codec.finish(pf)
    return codec, pf, pointers


def test_self_record_roundtrip():
    cells = {0: entries_for(0)}
    codec, pf, pointers = build_stream(cells)
    offset, got = codec.read(pointers[0], FileReader(pf))
    assert offset == 0
    assert got == tuple((pytest.approx(d), n) for d, n in cells[0])
    assert codec.self_records == 1
    assert codec.delta_records == 0


def test_delta_record_roundtrip_exact():
    base = entries_for(0)
    changed = list(base)
    changed[2] = (0.9, 42)          # one entry differs
    cells = {0: base, 1: changed}
    codec, pf, pointers = build_stream(cells, neighbors={0: [1], 1: [0]})
    assert codec.delta_records == 1
    reader = FileReader(pf)
    _, got_base = codec.read(pointers[0], reader)
    _, got_delta = codec.read(pointers[1], reader)
    # f32 quantization applies identically to both paths, so the delta
    # decode is bit-identical to a self decode of the same entries.
    assert got_delta[2] == (pytest.approx(0.9), 42)
    assert got_delta[:2] == got_base[:2]
    assert got_delta[3:] == got_base[3:]


def test_delta_requires_matching_entry_count():
    cells = {0: entries_for(0, count=6), 1: entries_for(1, count=5)}
    codec, _pf, _ = build_stream(cells, neighbors={0: [1], 1: [0]})
    assert codec.delta_records == 0
    assert codec.self_records == 2


def test_delta_must_be_strictly_smaller():
    # Every entry differs: the diff list costs more than self-encoding,
    # so the writer falls back.
    base = entries_for(0)
    cells = {0: base, 1: [(0.99, n + 100) for _d, n in base]}
    codec, pf, pointers = build_stream(cells, neighbors={0: [1], 1: [0]})
    assert codec.delta_records == 0
    _, got = codec.read(pointers[1], FileReader(pf))
    assert got[0][1] == 101


def test_compression_stats_consistent():
    cells = {c: entries_for(c) for c in range(4)}
    codec, _pf, _ = build_stream(
        cells, neighbors={0: [1], 1: [0, 2], 2: [1, 3], 3: [2]})
    stats = codec.compression_stats()
    assert stats["records"] == 4
    assert stats["self_records"] + stats["delta_records"] == 4
    assert stats["encoded_bytes"] == codec.stream_length
    assert stats["raw_bytes"] == 4 * PAGE_SIZE
    assert 0.0 < stats["ratio"] < 1.0


def test_storage_bytes_page_rounded():
    cells = {0: entries_for(0)}
    codec, _pf, _ = build_stream(cells)
    assert codec.storage_vpage_bytes(PAGE_SIZE, 1) == PAGE_SIZE
    assert codec.stream_length < PAGE_SIZE


# -- writer misuse -----------------------------------------------------------


def test_append_without_begin_cell_rejected():
    pf = make_file()
    codec = PackedDeltaVPageCodec(PAGE_SIZE, {})
    with pytest.raises(SchemeError):
        codec.append(pf, 0, 0, entries_for(0))


def test_append_after_finish_rejected():
    codec, pf, _ = build_stream({0: entries_for(0)})
    with pytest.raises(SchemeError):
        codec.append(pf, 0, 1, entries_for(0))
    with pytest.raises(SchemeError):
        codec.finish(pf)


def test_tiny_page_size_rejected():
    with pytest.raises(SchemeError):
        PackedDeltaVPageCodec(8, {})


def test_invalid_entries_rejected_at_encode():
    pf = make_file()
    codec = PackedDeltaVPageCodec(PAGE_SIZE, {})
    codec.begin_cell(0)
    with pytest.raises(SchemeError):
        codec.append(pf, 0, 0, [(1.5, 1)])     # DoV out of [0, 1]
    with pytest.raises(SchemeError):
        codec.append(pf, 0, 0, [(0.5, -1)])    # negative NVO


def test_varint_rejects_negative():
    with pytest.raises(SchemeError):
        _encode_varint(-1)
    # u32 maximum round-trips through the encoder shape (5 bytes).
    assert len(_encode_varint(0xFFFFFFFF)) == 5
    assert _encode_varint(0) == b"\x00"


# -- corruption --------------------------------------------------------------


def corrupt_byte(pf, page_id, index):
    page = bytearray(pf.read_page(page_id))
    page[index] ^= 0xFF
    pf.write_page(page_id, bytes(page))


def test_bit_flip_raises_page_corrupt():
    codec, pf, pointers = build_stream({0: entries_for(0)})
    corrupt_byte(pf, 0, 6)          # inside the payload: CRC catches it
    with pytest.raises(PageCorruptError):
        codec.read(pointers[0], FileReader(pf))


def test_torn_write_raises_page_corrupt():
    # Zero the page from mid-record on (a torn write): the payload and
    # CRC are gone, so the CRC check fires — never silent garbage.
    codec, pf, pointers = build_stream(
        {c: entries_for(c) for c in range(3)})
    cut = pointers[2] + 4
    page = bytearray(pf.read_page(0))
    page[cut:] = bytes(len(page) - cut)
    pf.write_page(0, bytes(page))
    with pytest.raises(PageCorruptError):
        codec.read(pointers[2], FileReader(pf))


def test_pointer_outside_stream_raises():
    codec, pf, _ = build_stream({0: entries_for(0)})
    with pytest.raises(PageCorruptError):
        codec.read(codec.stream_length, FileReader(pf))
    with pytest.raises(PageCorruptError):
        codec.read(-1, FileReader(pf))


def test_truncated_stream_raises():
    # A record that starts 10 bytes before the end of the stream's last
    # page but needs more: the cursor hits the stream end mid-record.
    head = (bytes((PACKED_VERSION, 0)) + _encode_varint(0)
            + _encode_varint(6))
    pointer = PAGE_SIZE - 10
    page = bytes(pointer) + head + bytes(10 - len(head))
    pf = make_file("truncated")
    pf.allocate_many(1)
    pf.write_page(0, page)
    codec = PackedDeltaVPageCodec(PAGE_SIZE, {})
    codec.stream_length = PAGE_SIZE
    codec.first_page = 0
    with pytest.raises(PageCorruptError):
        codec.read(pointer, FileReader(pf))


def test_bad_version_raises():
    codec, pf, pointers = build_stream({0: entries_for(0)})
    page = bytearray(pf.read_page(0))
    page[pointers[0]] = PACKED_VERSION + 1
    pf.write_page(0, bytes(page))
    with pytest.raises(PageCorruptError):
        codec.read(pointers[0], FileReader(pf))


def _record(body):
    return body + struct.pack("<I", zlib.crc32(body))


def hand_stream(records):
    """Install hand-crafted records into a codec + file; returns
    (codec, file, [pointer per record])."""
    stream = b""
    pointers = []
    for body in records:
        pointers.append(len(stream))
        stream += _record(body)
    pf = make_file("hand")
    pages = (len(stream) + PAGE_SIZE - 1) // PAGE_SIZE
    pf.allocate_many(pages)
    for i in range(pages):
        pf.write_page(i, stream[i * PAGE_SIZE:(i + 1) * PAGE_SIZE])
    codec = PackedDeltaVPageCodec(PAGE_SIZE, {})
    codec.stream_length = len(stream)
    codec.first_page = 0
    return codec, pf, pointers


def test_unknown_flags_raise():
    body = bytes((PACKED_VERSION, 0x04)) + _encode_varint(0) \
        + _encode_varint(0)
    codec, pf, pointers = hand_stream([body])
    with pytest.raises(PageCorruptError):
        codec.read(pointers[0], FileReader(pf))


def test_reference_chain_deeper_than_one_raises():
    f32 = struct.Struct("<f")
    self_body = (bytes((PACKED_VERSION, 0)) + _encode_varint(0)
                 + _encode_varint(1) + f32.pack(0.5) + _encode_varint(1))
    rec_a = _record(self_body)
    # B: delta vs A with zero diffs (legal, depth 1).
    delta_b = (bytes((PACKED_VERSION, 1)) + _encode_varint(0)
               + _encode_varint(1) + _encode_varint(0)
               + _encode_varint(0))
    rec_b = _record(delta_b)
    # C: delta vs B — a chain of depth 2 the decoder must refuse.
    delta_c = (bytes((PACKED_VERSION, 1)) + _encode_varint(0)
               + _encode_varint(1) + _encode_varint(len(rec_a))
               + _encode_varint(0))
    codec, pf, pointers = hand_stream([self_body, delta_b, delta_c])
    reader = FileReader(pf)
    assert codec.read(pointers[1], reader) == (0, ((0.5, 1),))
    with pytest.raises(PageCorruptError):
        codec.read(pointers[2], reader)
    del rec_b


def test_implausible_entry_count_raises():
    body = (bytes((PACKED_VERSION, 0)) + _encode_varint(0)
            + _encode_varint(PAGE_SIZE + 1))
    codec, pf, pointers = hand_stream([body])
    with pytest.raises(PageCorruptError):
        codec.read(pointers[0], FileReader(pf))


def test_overlong_varint_raises():
    body = bytes((PACKED_VERSION, 0)) + b"\x80\x80\x80\x80\x80\x01"
    codec, pf, pointers = hand_stream([body])
    with pytest.raises(PageCorruptError):
        codec.read(pointers[0], FileReader(pf))


def test_decoded_out_of_range_entry_raises():
    # CRC-valid record whose DoV is > 1: the semantic check still fires.
    f32 = struct.Struct("<f")
    body = (bytes((PACKED_VERSION, 0)) + _encode_varint(3)
            + _encode_varint(1) + f32.pack(7.5) + _encode_varint(1))
    codec, pf, pointers = hand_stream([body])
    with pytest.raises(PageCorruptError):
        codec.read(pointers[0], FileReader(pf))


def test_raw_codec_stats_are_identity():
    stats = RawVPageCodec().compression_stats()
    assert stats["ratio"] == 1.0
    assert stats["records"] == 0


# -- packed environment: search equivalence and corruption -------------------


def interesting_cells(env, limit=4):
    cells = sorted(env.grid.cell_ids(),
                   key=lambda c: -env.visibility.cell(c).num_visible)
    return cells[:limit]


@pytest.mark.parametrize("scheme_name", ["vertical", "indexed-vertical"])
def test_packed_env_selects_identically_to_raw(env, env_packed,
                                               scheme_name):
    raw_search = HDoVSearch(env, scheme_name)
    packed_search = HDoVSearch(env_packed, scheme_name)
    for eta in (0.0, 0.002):
        for cell_id in interesting_cells(env):
            env.scheme(scheme_name).current_cell = None
            env_packed.scheme(scheme_name).current_cell = None
            raw = raw_search.query_cell(cell_id, eta)
            packed = packed_search.query_cell(cell_id, eta)
            assert packed.object_ids() == raw.object_ids()
            assert [(i.node_offset, i.fraction) for i in packed.internals] \
                == [(i.node_offset, i.fraction) for i in raw.internals]


def test_packed_env_reads_fewer_vpage_bytes(env, env_packed):
    name = "vertical"
    for e in (env, env_packed):
        e.scheme(name).reset_runtime_state()
        e.reset_stats()
    cells = interesting_cells(env, limit=6)
    for cell_id in cells:
        HDoVSearch(env, name).query_cell(cell_id, 0.001)
        HDoVSearch(env_packed, name).query_cell(cell_id, 0.001)
    assert env_packed.light_stats.bytes_read < env.light_stats.bytes_read
    assert env_packed.heavy_stats.bytes_read == env.heavy_stats.bytes_read


def test_corrupt_compressed_page_degrades_never_garbage(env_packed):
    """Flip bits across the packed stream's first page: every affected
    query must either degrade (PageCorruptError absorbed by the search
    ladder) or answer identically — silent wrong answers are the one
    forbidden outcome."""
    scheme = env_packed.scheme("vertical")
    search = HDoVSearch(env_packed, "vertical")
    cells = interesting_cells(env_packed, limit=4)
    clean = {}
    for cell_id in cells:
        scheme.current_cell = None
        result = search.query_cell(cell_id, 0.002)
        clean[cell_id] = (result.object_ids(),
                          [(i.node_offset, i.fraction)
                           for i in result.internals])
    original = bytes(scheme.vpage_file.read_page(0))
    page = bytearray(original)
    for i in range(0, len(page), 7):
        page[i] ^= 0x55
    try:
        scheme.vpage_file.write_page(0, bytes(page))
        scheme.reset_runtime_state()
        degraded_somewhere = False
        for cell_id in cells:
            scheme.current_cell = None
            result = search.query_cell(cell_id, 0.002)   # must not raise
            if result.degraded:
                degraded_somewhere = True
            else:
                got = (result.object_ids(),
                       [(i.node_offset, i.fraction)
                        for i in result.internals])
                assert got == clean[cell_id]
        assert degraded_somewhere
    finally:
        scheme.vpage_file.write_page(0, original)
        scheme.reset_runtime_state()


# -- the in-place cursor fetches what the copying one fetched ----------------


class CopyingCursor:
    """The cursor the in-place one replaced, kept as the reference: it
    copies every field out through ``take``.  A record parsed with it
    fetches its pages in the order the parser has always fetched them."""

    def __init__(self, codec, pointer, reader):
        self._codec = codec
        self._reader = reader
        self._base = pointer
        self._buffer = bytearray()
        self.position = 0

    def take(self, count):
        while len(self._buffer) - self.position < count:
            next_byte = self._base + len(self._buffer)
            if next_byte >= self._codec.stream_length:
                raise PageCorruptError(
                    "packed V-page record truncated at stream end")
            page_size = self._codec.page_size
            page_index = next_byte // page_size
            page = self._reader.vpage_page(
                self._codec.first_page + page_index)
            self._buffer.extend(page[next_byte - page_index * page_size:])
        out = bytes(self._buffer[self.position:self.position + count])
        self.position += count
        return out

    def varint(self):
        value = 0
        shift = 0
        for _ in range(5):
            byte = self.take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if value > 0xFFFFFFFF:
                    raise PageCorruptError("varint exceeds u32 range")
                return value
            shift += 7
        raise PageCorruptError("varint longer than 5 bytes")

    # The parser's field reads, each spelled as a ``take``.

    def byte(self):
        return self.take(1)[0]

    def f32(self):
        return struct.unpack("<f", self.take(4))[0]

    def check_crc(self):
        body = bytes(self._buffer[:self.position])
        stored = struct.unpack("<I", self.take(4))[0]
        if zlib.crc32(body) != stored:
            raise PageCorruptError("packed V-page record CRC mismatch")


IN_PLACE_CURSOR = vpagecodec_module._StreamCursor


class RecordingReader:
    """A PageReader that logs every page id it is asked for."""

    def __init__(self, pf):
        self._pf = pf
        self.pages = []

    def vpage_page(self, page_id):
        self.pages.append(page_id)
        return self._pf.read_page(page_id)


def read_with(cursor, codec, pf, pointer, monkeypatch):
    """``(answer or error message, pages fetched)`` of one record read
    through ``cursor``; any error other than a corrupt page escapes."""
    monkeypatch.setattr(vpagecodec_module, "_StreamCursor", cursor)
    reader = RecordingReader(pf)
    try:
        answer = codec.read(pointer, reader)
    except PageCorruptError as exc:
        answer = ("corrupt", str(exc))
    return answer, reader.pages


def same_as_copying(codec, pf, pointer, monkeypatch):
    # Each read parses from an empty memo: a hit would replay the first
    # parse instead of running the second cursor.
    codec._decoded.clear()
    expected = read_with(CopyingCursor, codec, pf, pointer, monkeypatch)
    codec._decoded.clear()
    got = read_with(IN_PLACE_CURSOR, codec, pf, pointer, monkeypatch)
    assert got == expected, pointer
    return got


@pytest.mark.parametrize("scheme_name", ["vertical", "indexed-vertical"])
def test_in_place_cursor_fetches_every_record_as_before(env_packed,
                                                       monkeypatch,
                                                       scheme_name):
    """Every record of the packed build: the same ``(offset, entries)``
    and the same ``vpage_page`` page ids, in the same order."""
    scheme = env_packed.scheme(scheme_name)
    records = fetched_twice = 0
    for cell_id in env_packed.grid.cell_ids():
        for offset, pointer in scheme.cell_pointers(cell_id):
            answer, pages = same_as_copying(
                scheme.codec, scheme.vpage_file, pointer, monkeypatch)
            assert answer[0] == offset
            records += 1
            fetched_twice += len(pages) > 1     # a delta reads its base
    assert records == scheme.codec.records
    assert fetched_twice > 0


def test_in_place_cursor_fetches_as_before_across_page_boundaries(
        monkeypatch):
    """Small pages, so records and their bases straddle page ends."""
    cells = {c: entries_for(c, count=20) for c in range(12)}
    for c in range(1, 12, 2):
        cells[c] = list(cells[c - 1])
        cells[c][c] = (0.75, 9)
    neighbors = {c: [c - 1] for c in range(1, 12)}
    codec, pf, pointers = build_stream(cells, neighbors)
    assert codec.delta_records > 0 and codec.stream_length > 2 * PAGE_SIZE
    crossing = 0
    for pointer in pointers.values():
        _answer, pages = same_as_copying(codec, pf, pointer, monkeypatch)
        crossing += len(set(pages)) > 1
    assert crossing > 0


def test_single_byte_flips_in_a_delta_and_its_base_are_corrupt(monkeypatch):
    """Seeded sweep: flip each byte of a delta record and of its base in
    turn; reading the delta is a corrupt page every time, with the
    message and page fetches of the copying cursor — never another
    exception, never an answer."""
    base = entries_for(0, count=12)
    changed = list(base)
    changed[3] = (0.9, 42)
    changed[8] = (0.2, 7)
    codec, pf, pointers = build_stream({0: base, 1: changed},
                                       neighbors={1: [0]})
    assert codec.delta_records == 1 and pointers[0] < pointers[1]
    clean = read_with(IN_PLACE_CURSOR, codec, pf, pointers[1],
                      monkeypatch)[0]
    original = pf.read_page(0)
    rng = random.Random(30)
    for index in range(codec.stream_length):
        page = bytearray(original)
        page[index] ^= rng.randrange(1, 256)
        pf.write_page(0, bytes(page))
        answer, _pages = same_as_copying(codec, pf, pointers[1],
                                         monkeypatch)
        assert answer != clean
        assert answer[0] == "corrupt", index
    pf.write_page(0, original)
    assert read_with(IN_PLACE_CURSOR, codec, pf, pointers[1],
                     monkeypatch)[0] == clean


# -- a memo hit fetches what the parse fetched --------------------------------


class NoCursor:
    """Installed for a read that must be a memo hit: a parse fails."""

    def __init__(self, *args):
        raise AssertionError("a memo hit parsed the record")


@pytest.mark.parametrize("scheme_name", ["vertical", "indexed-vertical"])
def test_a_memo_hit_fetches_what_the_parse_fetched(env_packed, monkeypatch,
                                                  scheme_name):
    """Every record of the packed build, parsed from an empty memo and
    then read again: the second read parses nothing, returns the parse's
    answer and asks ``vpage_page`` for the parse's page ids in the
    parse's order — and the parse is still the copying cursor's."""
    scheme = env_packed.scheme(scheme_name)
    codec = scheme.codec
    monkeypatch.setattr(codec, "_decoded", {})
    records = 0
    for cell_id in env_packed.grid.cell_ids():
        for offset, pointer in scheme.cell_pointers(cell_id):
            codec._decoded.clear()
            copied = read_with(CopyingCursor, codec, scheme.vpage_file,
                               pointer, monkeypatch)
            codec._decoded.clear()
            parsed = read_with(IN_PLACE_CURSOR, codec, scheme.vpage_file,
                               pointer, monkeypatch)
            hit = read_with(NoCursor, codec, scheme.vpage_file, pointer,
                            monkeypatch)
            assert parsed == copied == hit, pointer
            assert parsed[0][0] == offset
            assert [page for page, _image in codec._decoded[pointer][0]] \
                == parsed[1]
            records += 1
    assert records == codec.records


def test_a_rewritten_record_is_parsed_again_without_refetching(monkeypatch):
    """Records that straddle small pages, each parsed once; then every
    page but the first is rewritten from a stream of the same layout and
    other values.  A read now parses again — over the pages its memo
    check fetched, then on from the reader — and equals a parse of the
    same bytes from an empty memo, in its answer or error and in the
    page ids it asked for."""
    def cells_with(dov):
        cells = {c: entries_for(c, count=20) for c in range(12)}
        for c in range(1, 12, 2):
            cells[c] = list(cells[c - 1])
            cells[c][c] = (dov, 9)
        return cells

    neighbors = {c: [c - 1] for c in range(1, 12)}
    codec, pf, pointers = build_stream(cells_with(0.75), neighbors)
    _fresh, new_pf, new_pointers = build_stream(cells_with(0.5), neighbors)
    assert new_pointers == pointers and pf.num_pages == new_pf.num_pages
    for pointer in pointers.values():
        read_with(IN_PLACE_CURSOR, codec, pf, pointer, monkeypatch)
    for page_id in range(1, pf.num_pages):
        pf.write_page(page_id, new_pf.read_page(page_id))
    memo = dict(codec._decoded)
    moved = 0
    for pointer in pointers.values():
        codec._decoded.clear()
        expected = read_with(IN_PLACE_CURSOR, codec, pf, pointer,
                             monkeypatch)
        codec._decoded.clear()
        codec._decoded.update(memo)
        got = read_with(IN_PLACE_CURSOR, codec, pf, pointer, monkeypatch)
        assert got == expected, pointer
        moved += got[0] != memo[pointer][1:]
    assert moved > 0
