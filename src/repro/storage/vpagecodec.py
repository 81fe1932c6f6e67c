"""Versioned V-page codecs: the only readers/writers of V-page bytes.

Two codecs share one interface:

* :class:`RawVPageCodec` — the seed layout: one V-page per disk page,
  encoded with the fixed-width serializer record.  Pointers are page
  ids.  Byte-for-byte identical to the pre-codec behaviour.
* :class:`PackedDeltaVPageCodec` — a packed record stream with per-cell
  delta compression.  Pointers are *byte offsets* into the stream, so
  many records share a page and ``bytes_read`` reflects the compressed
  footprint exactly (page-granularity charging over far fewer pages).

Lint rule RPR014 makes this module (plus the serializer that owns the
raw byte layout) the only place allowed to call
``encode_vpage``/``decode_vpage``: every scheme reads V-pages through a
codec, so a format change — or a corruption check — lands in one place.

Packed record layout (version 2, little-endian, varint = unsigned
LEB128 capped at 5 bytes):

========================  ==================================================
field                     bytes
========================  ==================================================
version                   u8, always ``2``
flags                     u8, bit 0 = delta-encoded (all other bits 0)
node offset               varint
entry count               varint
ref pointer               varint, *delta records only*: byte offset of the
                          self-encoded base record (reference chain depth
                          is exactly 1 — the decoder refuses deeper chains)
payload                   self: per entry ``f32 DoV + varint NVO``;
                          delta: ``varint ndiff`` then per changed entry
                          ``varint index gap + f32 DoV + varint NVO``
                          (gaps are ``index - prev_index - 1``; the first
                          gap is the absolute index)
CRC32                     u32 over all preceding record bytes
========================  ==================================================

Delta encoding exploits what "Scalable Visibility Color Map
Construction" observes: nearby viewpoints share most of their visible
set, so a cell's V-page usually differs from a grid-adjacent neighbour's
in a handful of entries.  The writer designates, per cell, the most
recently *written* grid-adjacent cell as the reference — a rule that
holds under any write order, not only the build's ascending one — and
falls back to self-encoding whenever the delta would not be smaller or
the base record is itself a delta.  Entry lists are positional and
structurally identical across cells (one V-entry per tree-node entry),
so an index diff is well-defined.

Corruption never decodes silently: every record is CRC-covered, every
varint is bounds-checked against the stream, and any parse failure —
bad version, bad flags, chain depth, out-of-range DoV/NVO, truncation —
raises :class:`~repro.errors.PageCorruptError`, which the search layer
degrades exactly like a page-trailer CRC failure.
"""

from __future__ import annotations

import abc
import struct
import zlib
from typing import (Any, Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple, TypeVar)

from repro.errors import PageCorruptError, SchemeError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage import pageio
from repro.storage.pagedfile import PagedFile
from repro.storage.serializer import decode_vpage, encode_vpage

#: Packed record format version (raw pages carry no version byte; their
#: layout predates the codec and is fixed by the serializer).
PACKED_VERSION = 2
#: flags bit 0: the payload is a diff against a reference record.
_FLAG_DELTA = 0x01

_F32 = struct.Struct("<f")
_CRC = struct.Struct("<I")

#: One V-entry, ``(DoV, NVO)`` — structurally the same alias as
#: ``repro.core.vpage.VEntry``, redeclared here so the storage layer
#: does not import upward into ``repro.core``.
VEntry = Tuple[float, int]

T = TypeVar("T")


class PageReader(Protocol):
    """Read access to the V-page file, supplied by the calling scheme.

    The scheme routes this through its serving page cache and, for
    packed codecs, its small read-through page cache — so the codec
    never decides *whether* a page read is charged, only which pages a
    record needs.
    """

    def vpage_page(self, page_id: int) -> bytes:
        ...

    def vpage_decoded(self, page_id: int,
                      decoder: Callable[[bytes], T]) -> T:
        """``decoder(vpage_page(page_id))``, for codecs whose records
        are whole pages: a scheme with a serving page cache keeps the
        decoded form on the cached frame, so a hot page is decoded once
        per residency.  The codec still supplies the decoder — only it
        knows the byte layout."""
        ...


class VPageCodec(abc.ABC):
    """Versioned encoder/decoder between V-entries and V-page bytes."""

    kind: str = "abstract"
    #: Whether pointers are byte offsets into a packed stream (True) or
    #: page ids (False).
    packed: bool = False

    def begin_cell(self, cell_id: int) -> None:
        """Writer hook: the next ``append`` calls belong to ``cell_id``."""
        return None

    @abc.abstractmethod
    def append(self, vpage_file: PagedFile, cell_id: int, node_offset: int,
               ventries: Sequence[VEntry]) -> int:
        """Encode and store one V-page; returns its pointer."""

    def finish(self, vpage_file: PagedFile) -> None:
        """Writer hook: all cells appended; flush any buffered state."""
        return None

    @abc.abstractmethod
    def read(self, pointer: int, reader: PageReader
             ) -> Tuple[int, Sequence[VEntry]]:
        """Decode the V-page at ``pointer``; returns
        ``(node_offset, ventries)``.  Callers must not mutate the
        V-entries: they are shared with other reads and sessions."""

    @abc.abstractmethod
    def storage_vpage_bytes(self, page_size: int, total_vpages: int) -> int:
        """On-disk bytes the V-page structure occupies (Table 2)."""

    @abc.abstractmethod
    def compression_stats(self) -> Dict[str, float]:
        """Raw-vs-encoded byte accounting for ``repro profile``."""


class RawVPageCodec(VPageCodec):
    """Seed layout: one fixed-width V-page record per disk page.

    The writer allocates each record's page when it is appended, so the
    pointer it returns is final, and stages the image; ``finish`` writes
    the staged pages as one run.
    """

    kind = "raw"
    packed = False

    def __init__(self) -> None:
        #: Staged, unwritten pages: ``(file, first page id, images)``.
        self._run: Optional[Tuple[PagedFile, int, List[bytes]]] = None

    def append(self, vpage_file: PagedFile, cell_id: int, node_offset: int,
               ventries: Sequence[VEntry]) -> int:
        return self.append_image(vpage_file, self.encode_page(
            node_offset, ventries, vpage_file.page_size))

    def append_image(self, vpage_file: PagedFile, image: bytes) -> int:
        """Stage one encoded V-page; returns its page id.  A page that
        does not extend the staged run first writes that run."""
        page_id = vpage_file.allocate()
        run = self._run
        if (run is None or run[0] is not vpage_file
                or run[1] + len(run[2]) != page_id):
            self._flush()
            run = self._run = (vpage_file, page_id, [])
        run[2].append(image)
        return page_id

    def finish(self, vpage_file: PagedFile) -> None:
        self._flush()

    def _flush(self) -> None:
        run, self._run = self._run, None
        if run is not None:
            pageio.write_run(run[0], run[1], run[2], component="schemes")

    def read(self, pointer: int, reader: PageReader
             ) -> Tuple[int, Tuple[VEntry, ...]]:
        return reader.vpage_decoded(pointer, self.decode_page)

    # The horizontal scheme writes at computed page ids instead of
    # appending, so the raw codec also exposes the bare byte codec.

    def encode_page(self, node_offset: int, ventries: Sequence[VEntry],
                    page_size: int) -> bytes:
        return encode_vpage(node_offset, ventries, page_size)

    def decode_page(self, data: bytes) -> Tuple[int, Tuple[VEntry, ...]]:
        return decode_vpage(data)

    def storage_vpage_bytes(self, page_size: int, total_vpages: int) -> int:
        return page_size * total_vpages

    def compression_stats(self) -> Dict[str, float]:
        return {"codec": self.kind, "records": 0, "self_records": 0,
                "delta_records": 0, "raw_bytes": 0, "encoded_bytes": 0,
                "ratio": 1.0}


_SMALL_VARINTS = tuple(bytes((value,)) for value in range(0x80))


def _encode_varint(value: int) -> bytes:
    if 0 <= value < 0x80:
        return _SMALL_VARINTS[value]
    if value < 0:
        raise SchemeError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


#: Quantized V-entry: (f32 bit pattern of the DoV, NVO).  Comparing bit
#: patterns, not floats, makes "unchanged vs the reference" exact — the
#: raw codec stores f32 too, so decode returns identical values either
#: way (RPR005-safe: this is bit equality, not float tolerance).
_QEntry = Tuple[bytes, int]


def _quantize(ventries: Sequence[VEntry]) -> List[_QEntry]:
    quantized: List[_QEntry] = []
    for dov, nvo in ventries:
        if not 0.0 <= dov <= 1.0:
            raise SchemeError(f"DoV out of [0, 1]: {dov}")
        if nvo < 0:
            raise SchemeError(f"negative NVO: {nvo}")
        quantized.append((_F32.pack(dov), nvo))
    return quantized


def _self_payload(quantized: Sequence[_QEntry]) -> bytes:
    parts = []
    for bits, nvo in quantized:
        parts.append(bits)
        parts.append(_encode_varint(nvo))
    return b"".join(parts)


def _delta_payload(quantized: Sequence[_QEntry],
                   base: Sequence[_QEntry]) -> bytes:
    diffs = [i for i, entry in enumerate(quantized) if entry != base[i]]
    parts = [_encode_varint(len(diffs))]
    previous = -1
    for index in diffs:
        parts.append(_encode_varint(index - previous - 1))
        bits, nvo = quantized[index]
        parts.append(bits)
        parts.append(_encode_varint(nvo))
        previous = index
    return b"".join(parts)


class _StreamCursor:
    """Byte-granular reads over the packed stream, fetching pages lazily
    through the scheme's reader (each page fetched at most once per
    record decode).

    Fields are parsed in place out of the buffered bytes.  A page is
    fetched only when a field needs bytes past the buffer's end, so the
    page ids reach ``vpage_page`` in the same order, at the same byte
    positions, as a cursor that copied out every field would send them.
    """

    def __init__(self, codec: "PackedDeltaVPageCodec", pointer: int,
                 reader: "_Fetches") -> None:
        self._codec = codec
        self._reader = reader
        self._base = pointer
        self._buffer = bytearray()
        self.position = 0

    def _fill(self, count: int) -> None:
        """Fetch pages until ``count`` bytes lie past ``position``."""
        buffer = self._buffer
        while len(buffer) - self.position < count:
            next_byte = self._base + len(buffer)
            if next_byte >= self._codec.stream_length:
                raise PageCorruptError(
                    "packed V-page record truncated at stream end")
            page_size = self._codec.page_size
            page_index = next_byte // page_size
            page = self._reader.vpage_page(
                self._codec.first_page + page_index)
            buffer.extend(page[next_byte - page_index * page_size:])

    def byte(self) -> int:
        position = self.position
        if position >= len(self._buffer):
            self._fill(1)
        self.position = position + 1
        return self._buffer[position]

    def f32(self) -> float:
        position = self.position
        if len(self._buffer) - position < 4:
            self._fill(4)
        self.position = position + 4
        value: float = _F32.unpack_from(self._buffer, position)[0]
        return value

    def varint(self) -> int:
        value = 0
        shift = 0
        for _ in range(5):                 # u32 fits 5 LEB128 bytes
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if value > 0xFFFFFFFF:
                    raise PageCorruptError("varint exceeds u32 range")
                return value
            shift += 7
        raise PageCorruptError("varint longer than 5 bytes")

    def check_crc(self) -> None:
        """Read the stored CRC32 and compare it with every byte before
        it; raises :class:`PageCorruptError` on a mismatch."""
        body = zlib.crc32(self._buffer[:self.position])
        position = self.position
        if len(self._buffer) - position < _CRC.size:
            self._fill(_CRC.size)
        self.position = position + _CRC.size
        if body != _CRC.unpack_from(self._buffer, position)[0]:
            raise PageCorruptError("packed V-page record CRC mismatch")


class _Fetches:
    """The page source of one parse: it hands out ``replay``'s images
    first, then reads on from ``reader``, keeping every
    ``(page id, image)`` in fetch order.  ``replay`` holds the pages a
    memo check fetched; a parse asks for them again in the same order,
    because which page it asks for next depends only on the bytes before
    it."""

    def __init__(self, reader: PageReader,
                 replay: List[Tuple[int, bytes]]) -> None:
        self._reader = reader
        self.fetched = replay
        self._next = 0

    def vpage_page(self, page_id: int) -> bytes:
        index = self._next
        self._next = index + 1
        if index < len(self.fetched):
            return self.fetched[index][1]
        image = self._reader.vpage_page(page_id)
        self.fetched.append((page_id, image))
        return image


class PackedDeltaVPageCodec(VPageCodec):
    """Packed, delta-compressed V-page stream (record layout above).

    ``neighbors`` maps each cell id to its grid-adjacent cell ids (the
    4-neighbourhood from :meth:`CellGrid.neighbors`); it drives the
    reference-cell designation.  The writer buffers the stream in memory
    during build and flushes it as one page run in ``finish`` — appends
    return final pointers immediately, and every page is written exactly
    once, deterministically.
    """

    kind = "packed-delta"
    packed = True

    def __init__(self, page_size: int, neighbors: Dict[int, List[int]],
                 scheme: str = "unknown") -> None:
        if page_size < 16:
            raise SchemeError(f"page size {page_size} too small to pack")
        self.page_size = page_size
        self.scheme = scheme
        #: cell id -> grid-adjacent cell ids, the candidate delta bases.
        self.neighbors: Dict[int, List[int]] = dict(neighbors)
        self._stream = bytearray()
        #: First file page of the stream (set by ``finish``).
        self.first_page = 0
        self.stream_length = 0
        self._finished = False
        #: Write order of cells: cell id -> sequence number.
        self._write_seq: Dict[int, int] = {}
        self._current_cell: Optional[int] = None
        self._current_ref: Optional[int] = None
        #: Self-encoded records only: (cell, node offset) -> quantized
        #: entries / stream pointer.  Delta records never serve as bases,
        #: which caps reference chains at depth 1 by construction.
        self._base_entries: Dict[Tuple[int, int], List[_QEntry]] = {}
        self._base_pointers: Dict[Tuple[int, int], int] = {}
        self.self_records = 0
        self.delta_records = 0
        self.records = 0
        self.pages_used = 0
        #: ``_tally``'s registry and its self-record, delta-record (each
        #: made at its kind's first record), raw- and encoded-byte handles.
        self._handles: List[Any] = [None]
        #: pointer -> (the ``(page id, image)`` pairs its parse fetched,
        #: in order; node offset; entries).  At most one entry a record.
        self._decoded: Dict[int, Tuple[Tuple[Tuple[int, bytes], ...], int,
                                       Tuple[VEntry, ...]]] = {}

    # -- write -------------------------------------------------------------

    def begin_cell(self, cell_id: int) -> None:
        self._current_cell = cell_id
        self._current_ref = None
        best = -1
        for neighbor in self.neighbors.get(cell_id, []):
            seq = self._write_seq.get(neighbor, -1)
            if seq > best:
                best = seq
                self._current_ref = neighbor
        self._write_seq[cell_id] = len(self._write_seq)

    def append(self, vpage_file: PagedFile, cell_id: int, node_offset: int,
               ventries: Sequence[VEntry]) -> int:
        if self._finished:
            raise SchemeError("packed V-page stream already finished")
        if cell_id != self._current_cell:
            raise SchemeError(
                f"append for cell {cell_id} without begin_cell "
                f"(current: {self._current_cell})")
        quantized = _quantize(ventries)
        head = (bytes((PACKED_VERSION,)) + bytes((0,))
                + _encode_varint(node_offset)
                + _encode_varint(len(quantized)))
        self_body = head + _self_payload(quantized)
        body = self_body
        delta = False
        ref = self._current_ref
        if ref is not None:
            base = self._base_entries.get((ref, node_offset))
            if base is not None and len(base) == len(quantized):
                ref_pointer = self._base_pointers[(ref, node_offset)]
                delta_body = (bytes((PACKED_VERSION,))
                              + bytes((_FLAG_DELTA,))
                              + _encode_varint(node_offset)
                              + _encode_varint(len(quantized))
                              + _encode_varint(ref_pointer)
                              + _delta_payload(quantized, base))
                if len(delta_body) < len(self_body):
                    body = delta_body
                    delta = True
        pointer = len(self._stream)
        self._stream.extend(body)
        self._stream.extend(_CRC.pack(zlib.crc32(body)))
        self.records += 1
        if delta:
            self.delta_records += 1
        else:
            self.self_records += 1
            self._base_entries[(cell_id, node_offset)] = quantized
            self._base_pointers[(cell_id, node_offset)] = pointer
        self._tally(delta, len(body) + _CRC.size)
        return pointer

    def _tally(self, delta: bool, encoded: int) -> None:
        """Count one record into ``_handles``, refilled per registry."""
        registry = get_registry()
        handles = self._handles
        if handles[0] is not registry:
            handles = self._handles = [registry, None, None, registry.counter(
                names.VPAGE_RAW_BYTES, scheme=self.scheme), registry.counter(
                names.VPAGE_ENCODED_BYTES, scheme=self.scheme)]
        records = handles[1 + delta]
        if records is None:
            records = handles[1 + delta] = (
                registry.counter(names.VPAGE_RECORDS_DELTA,
                                 scheme=self.scheme) if delta
                else registry.counter(names.VPAGE_RECORDS_SELF,
                                      scheme=self.scheme))
        records.value += 1
        handles[3].value += self.page_size
        handles[4].value += encoded

    def finish(self, vpage_file: PagedFile) -> None:
        if self._finished:
            raise SchemeError("packed V-page stream already finished")
        self._finished = True
        self.stream_length = len(self._stream)
        pages = max((self.stream_length + self.page_size - 1)
                    // self.page_size, 1)
        # Schemes give the packed codec a dedicated V-page file, so the
        # stream owns it from page 0.
        self.first_page = vpage_file.allocate_many(pages)
        stream = bytes(self._stream)
        pageio.write_run(vpage_file, self.first_page,
                         [stream[index:index + self.page_size] for index
                          in range(0, pages * self.page_size,
                                   self.page_size)],
                         component="schemes")
        self.pages_used = pages

    # -- read --------------------------------------------------------------

    def read(self, pointer: int, reader: PageReader
             ) -> Tuple[int, Tuple[VEntry, ...]]:
        """Decode the record at ``pointer``, parsed once per stored image:
        a known record re-issues ``reader.vpage_page`` for each page its
        parse fetched, in order, and returns the stored answer when each
        image is equal by value, so every charge, fault draw and cache
        move is the parse's.  At the first unequal image it parses over
        the images already fetched, then reads on, never fetching a page
        twice.  A parse that raises stores nothing."""
        fetched: List[Tuple[int, bytes]] = []
        seen = self._decoded.get(pointer)
        if seen is not None:
            pages, node_offset, entries = seen
            for index, (page_id, image) in enumerate(pages):
                page = reader.vpage_page(page_id)
                if page != image:
                    fetched = [*pages[:index], (page_id, page)]
                    break
            else:
                return node_offset, entries
        source = _Fetches(reader, fetched)
        node_offset, entries = self._read_record(pointer, source, depth=0)
        self._decoded[pointer] = (tuple(source.fetched), node_offset,
                                  entries)
        return node_offset, entries

    def _read_record(self, pointer: int, reader: _Fetches, *,
                     depth: int) -> Tuple[int, Tuple[VEntry, ...]]:
        if not 0 <= pointer < self.stream_length:
            raise PageCorruptError(
                f"packed V-page pointer {pointer} outside stream "
                f"of {self.stream_length} bytes")
        cursor = _StreamCursor(self, pointer, reader)
        try:
            version = cursor.byte()
            if version != PACKED_VERSION:
                raise PageCorruptError(
                    f"packed V-page version {version}, "
                    f"expected {PACKED_VERSION}")
            flags = cursor.byte()
            if flags & ~_FLAG_DELTA:
                raise PageCorruptError(
                    f"packed V-page has unknown flags 0x{flags:02x}")
            node_offset = cursor.varint()
            count = cursor.varint()
            if count > self.page_size:
                # More entries than a raw page could ever hold: garbage.
                raise PageCorruptError(
                    f"packed V-page entry count {count} implausible")
            if flags & _FLAG_DELTA:
                if depth > 0:
                    raise PageCorruptError(
                        "packed V-page reference chain deeper than 1")
                ref_pointer = cursor.varint()
                ndiff = cursor.varint()
                if ndiff > count:
                    raise PageCorruptError(
                        f"delta record with {ndiff} diffs over "
                        f"{count} entries")
                diffs: List[Tuple[int, VEntry]] = []
                index = -1
                for _ in range(ndiff):
                    index += cursor.varint() + 1
                    if index >= count:
                        raise PageCorruptError(
                            f"delta index {index} out of {count} entries")
                    dov = cursor.f32()
                    nvo = cursor.varint()
                    diffs.append((index, (dov, nvo)))
                cursor.check_crc()
                base_offset, base = self._read_record(
                    ref_pointer, reader, depth=depth + 1)
                if base_offset != node_offset or len(base) != count:
                    raise PageCorruptError(
                        "packed V-page reference record mismatch")
                entries = list(base)
                for index, entry in diffs:
                    entries[index] = entry
            else:
                entries = []
                for _ in range(count):
                    dov = cursor.f32()
                    nvo = cursor.varint()
                    entries.append((dov, nvo))
                cursor.check_crc()
        except struct.error as exc:     # pragma: no cover - defensive
            raise PageCorruptError(
                f"packed V-page record unreadable: {exc}") from exc
        for dov, nvo in entries:
            if not 0.0 <= dov <= 1.0 or nvo < 0:
                raise PageCorruptError(
                    f"packed V-page decoded invalid V-entry "
                    f"({dov}, {nvo})")
        return node_offset, tuple(entries)

    # -- reporting ----------------------------------------------------------

    def storage_vpage_bytes(self, page_size: int, total_vpages: int) -> int:
        pages = max((self.stream_length + page_size - 1) // page_size, 1)
        return page_size * pages

    def compression_stats(self) -> Dict[str, float]:
        raw = self.records * self.page_size
        encoded = self.stream_length
        return {
            "codec": self.kind,
            "records": self.records,
            "self_records": self.self_records,
            "delta_records": self.delta_records,
            "raw_bytes": raw,
            "encoded_bytes": encoded,
            "ratio": (encoded / raw) if raw else 1.0,
        }
