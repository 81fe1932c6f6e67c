"""Common interface of the V-page storage schemes.

A scheme stores, for every (cell, visible node) pair, the node's V-page,
and answers two runtime operations:

* ``flip_to_cell(cell)`` — make ``cell`` current, paying whatever I/O the
  scheme's per-cell structure requires ("flipping the V-page-index",
  Section 4.2–4.3);
* ``ventries(node_offset)`` — the current cell's V-page for a node, or
  ``None`` when the node is invisible, paying the V-page read.

Schemes also report their storage cost for Table 2.
"""

from __future__ import annotations

import abc
import copy
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.vpage import CellVPages, VEntry
from repro.errors import SchemeError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage import pageio
from repro.storage.buffer import BufferPool
from repro.storage.pagedfile import PagedFile
from repro.storage.vpagecodec import RawVPageCodec, VPageCodec

T = TypeVar("T")


@dataclass(frozen=True)
class StorageBreakdown:
    """Byte sizes of a scheme's on-disk structures (excluding the tree
    file, which is identical across schemes — the paper excludes it too)."""

    scheme: str
    vpage_bytes: int
    index_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.vpage_bytes + self.index_bytes

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)


#: Read-through page cache capacity for packed V-page streams.  Small
#: and FIFO by insertion so replays are deterministic: consecutive
#: records on one page charge one page read, and a delta record whose
#: reference sits on the previous page does not thrash.  Irrelevant for
#: the raw codec, whose one-record-per-page reads are *deliberately*
#: uncached — the seed accounting (every ``ventries`` call pays its
#: page read) must stay byte-identical.
PACKED_READ_CACHE_PAGES = 4


class StorageScheme(abc.ABC):
    """Abstract base of the three storage schemes."""

    name: str = "abstract"

    def __init__(self, vpage_file: PagedFile,
                 index_file: Optional[PagedFile] = None,
                 codec: Optional[VPageCodec] = None) -> None:
        self.vpage_file = vpage_file
        self.index_file = index_file
        #: The versioned V-page codec — the only reader/writer of V-page
        #: bytes (lint rule RPR014).  Defaults to the raw page-per-record
        #: codec, which reproduces the seed layout byte for byte.
        self.codec: VPageCodec = codec if codec is not None \
            else RawVPageCodec()
        #: Per-view read-through page cache for packed streams (see
        #: PACKED_READ_CACHE_PAGES); always empty under the raw codec.
        self._vpage_read_cache: Dict[int, bytes] = {}
        #: Optional shared page cache (set by the serving layer): when
        #: present, V-page and index reads go through it so concurrent
        #: sessions share hot pages.  ``None`` keeps the sequential
        #: direct-``pageio`` path byte-for-byte unchanged.
        self.page_cache: Optional[BufferPool] = None
        self.current_cell: Optional[int] = None
        self.flips = 0
        self._m_flips = get_registry().counter(names.SCHEME_FLIPS,
                                               scheme=self.name)

    # -- build -------------------------------------------------------------

    @abc.abstractmethod
    def build(self, num_nodes: int, cells: List[CellVPages]) -> None:
        """Lay out all cells' V-pages on disk.  ``num_nodes`` is the total
        node count (DFS offsets are < num_nodes)."""

    # -- runtime ------------------------------------------------------------

    def flip_to_cell(self, cell_id: int) -> None:
        """Make ``cell_id`` the current cell, paying the flip I/O (the
        index reads go through the shared page cache when serving, so a
        flip whose segment is still resident in the pool charges none).

        Exception safety: every scheme's ``_load_cell`` reads and
        decodes *before* assigning its segment state, and
        ``current_cell`` advances only after ``_load_cell`` returns.
        A flip that fails mid-read (e.g. an injected storage fault)
        therefore leaves the previous cell fully intact — the search
        layer relies on this to degrade the one query and retry the
        flip on the next frame.
        """
        if cell_id == self.current_cell:
            return
        self._load_cell(cell_id)
        self.current_cell = cell_id
        self.flips += 1
        self._m_flips.inc()

    # -- serving support ------------------------------------------------------

    def session_view(self) -> "StorageScheme":
        """A lightweight per-session clone for concurrent serving.

        The clone shares the built on-disk structures (files,
        directory, page cache, metric handles) with its parent but
        owns private *flip state* — current cell, loaded segment — so
        two sessions standing in different cells do not clobber each
        other's V-page index.  Counters on the clone start at zero; the
        shared metric series keep aggregating across all views of the
        scheme.
        """
        clone = copy.copy(self)
        clone.current_cell = None
        clone.flips = 0
        clone._vpage_read_cache = {}
        clone._reset_cell_state()
        return clone

    def _reset_cell_state(self) -> None:
        """Drop loaded per-cell state (hook for :meth:`session_view`).

        Deliberately a no-op (not abstract): stateless schemes, like
        the horizontal one, keep no per-cell state to drop.
        """
        return None

    def _read_vpage(self, pointer: int) -> bytes:
        """Read one V-page — through the shared page cache when serving.

        Both paths route the actual disk read through the
        ``repro.storage.pageio`` facade, so retry + component
        accounting are identical; the cache only decides whether the
        read happens at all.
        """
        if self.page_cache is not None:
            return self.page_cache.get(self.vpage_file, pointer,
                                       reader=scheme_reader)
        return pageio.read_page(self.vpage_file, pointer,
                                component="schemes")

    def vpage_page(self, page_id: int) -> bytes:
        """Codec page source (:class:`~repro.storage.vpagecodec.PageReader`).

        Raw codec: a plain accounted read per call, preserving the seed
        behaviour where every ``ventries`` call pays its page read.
        Packed codec: a small FIFO read-through cache, so the records
        sharing one page cost one read and ``bytes_read`` reflects the
        compressed footprint instead of re-charging per record.
        """
        if not self.codec.packed:
            return self._read_vpage(page_id)
        cached = self._vpage_read_cache.get(page_id)
        if cached is not None:
            return cached
        data = self._read_vpage(page_id)
        self._vpage_read_cache[page_id] = data
        while len(self._vpage_read_cache) > PACKED_READ_CACHE_PAGES:
            oldest = next(iter(self._vpage_read_cache))
            del self._vpage_read_cache[oldest]
        return data

    def vpage_decoded(self, page_id: int,
                      decoder: Callable[[bytes], T]) -> T:
        """Codec decoded-page source
        (:class:`~repro.storage.vpagecodec.PageReader`): one accounted
        read per call, like :meth:`vpage_page` under the raw codec.
        When serving, the decoded page rides on the shared cache's
        frame, so only the first reader of a resident page decodes it.
        """
        if self.page_cache is not None:
            return self.page_cache.get(self.vpage_file, page_id,
                                       reader=scheme_reader,
                                       decoder=decoder)
        return decoder(self._read_vpage(page_id))

    def _decode_vpage_at(self, pointer: int,
                         node_offset: int) -> Sequence[VEntry]:
        """Read and decode one V-page through the codec, checking that
        the stored node offset matches the requested one."""
        stored_offset, ventries = self.codec.read(pointer, self)
        if stored_offset != node_offset:
            raise SchemeError("V-page node-offset mismatch")
        return ventries

    @abc.abstractmethod
    def _load_cell(self, cell_id: int) -> None:
        """Scheme-specific flip work (may be a no-op)."""

    @abc.abstractmethod
    def ventries(self, node_offset: int) -> Optional[Sequence[VEntry]]:
        """Current cell's V-page of a node; ``None`` if invisible.
        Charges the V-page read through the backing file.  The entries
        may be shared with other sessions: read-only."""

    def ventries_page(self, node_offset: int) -> Optional[int]:
        """The V-page-file page ``ventries(node_offset)`` reads in the
        current cell; ``None`` when it reads none, or when the cell
        alone does not decide which (the packed codec: the view's read
        cache does).  Pure addressing."""
        return None

    def _require_cell(self) -> int:
        if self.current_cell is None:
            raise SchemeError(f"{self.name}: no current cell; flip first")
        return self.current_cell

    # -- reporting ------------------------------------------------------------

    @abc.abstractmethod
    def storage_breakdown(self) -> StorageBreakdown:
        """Byte cost of the scheme's structures, for Table 2."""

    #: Approximate resident memory the scheme needs at runtime for the
    #: current cell (vertical keeps N_node pointers, indexed-vertical only
    #: N_vnode pairs, horizontal nothing).
    @abc.abstractmethod
    def resident_bytes(self) -> int:
        ...

    def reset_io_head(self) -> None:
        """Forget file positions so the next query pays cold seeks."""
        self.vpage_file.reset_head()
        if self.index_file is not None:
            self.index_file.reset_head()
        # The packed read cache is runtime state too: a cold query must
        # re-pay its page reads.
        self._vpage_read_cache.clear()

    def reset_runtime_state(self) -> None:
        """Forget *all* runtime state — current cell, loaded segment,
        file heads, read cache — returning the scheme to its just-built
        condition, so that two replays start from identical state."""
        self.current_cell = None
        self._reset_cell_state()
        self.reset_io_head()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(cell={self.current_cell}, "
                f"flips={self.flips})")


class SegmentScheme(StorageScheme):
    """A per-cell index segment in front of DFS-ordered V-pages.

    Sections 4.2 and 4.3 define the vertical and the indexed-vertical
    scheme as this one structure.  Per cell, the V-pages of the visible
    nodes are stored contiguously "in the order of the tree nodes
    accessed in the depth-first traversal, so that all V-pages accessed
    during a visibility query can be retrieved in a sequential scan";
    in front of them sits the cell's *segment*, the node offset ->
    V-page pointer map a flip reads whole and keeps resident, so that
    finding a node's V-page is a memory access and only the V-page read
    costs I/O.

    Segments are byte ranges on shared index pages, packed to the sizes
    Section 4's formulas give them: a segment that fits in one page
    never crosses a page boundary, so a flip still reads one page, and
    neighbouring cells share a page (one pool frame, one read-ahead
    window) instead of each owning a mostly empty one.  A larger segment
    starts on a page of its own and reads the fewest pages it can.

    Everything that writes, loads or addresses a segment is written
    here, once.  A concrete scheme states only where a cell's
    segment lives and how its bytes spell the pairs:

    * :meth:`_segment_span` — where the stored segment of a cell is;
    * :meth:`_place_segment` — where a freshly written one goes;
    * :meth:`_encode_segment` / :meth:`_decode_segment` — pairs <-> bytes.
    """

    def __init__(self, vpage_file: PagedFile, index_file: PagedFile,
                 codec: Optional[VPageCodec] = None) -> None:
        super().__init__(vpage_file, index_file, codec=codec)
        self.num_nodes = 0
        self.num_cells = 0
        #: The current cell's loaded segment: node offset -> pointer.
        self._segment: Dict[int, int] = {}
        #: cell id -> N_vnode, the cell's ``(offset, pointer)`` pairs.
        self._cell_vnodes: Dict[int, int] = {}

    # -- what a concrete scheme supplies --------------------------------------

    @abc.abstractmethod
    def _segment_span(self, cell_id: int
                      ) -> Optional[Tuple[int, int, int]]:
        """``(first index page, page count, byte offset in the first
        page)`` of the cell's stored segment; ``None`` for a cell that
        has none.  Pure addressing."""

    @abc.abstractmethod
    def _place_segment(self, cell_id: int, nbytes: int) -> Tuple[int, int]:
        """``(first index page, byte offset)`` for a fresh ``nbytes``
        segment of the cell; afterwards :meth:`_segment_span` answers
        with it."""

    @abc.abstractmethod
    def _encode_segment(self, pairs: List[Tuple[int, int]]) -> bytes:
        """Segment bytes of ``(node offset, pointer)`` pairs (DFS order)."""

    @abc.abstractmethod
    def _decode_segment(self, cell_id: int,
                        data: bytes) -> List[Tuple[int, int]]:
        """The pairs back from the bytes starting at the cell's segment,
        in stored order."""

    # -- write ----------------------------------------------------------------

    def build(self, num_nodes: int, cells: List[CellVPages]) -> None:
        """Write every cell, then each index page once, whole: segments
        share pages, so the pages are staged until the last cell is in
        and none is ever read back to be rewritten."""
        if self._cell_vnodes:
            raise SchemeError(f"{self.name} scheme already built")
        if self.index_file is None:
            raise SchemeError(f"{self.name} scheme needs an index file")
        if not cells:
            raise SchemeError("no cells to build")
        self.num_nodes = num_nodes
        self.num_cells = len(cells)
        staged: Dict[int, bytearray] = {}
        for cell in cells:
            self._write_cell(cell, staged)
        # One run per stretch of consecutive staged pages: segments are
        # placed back to back, so the index file is one run.
        for _, stretch in itertools.groupby(
                enumerate(sorted(staged)), lambda item: item[1] - item[0]):
            page_ids = [page_id for _, page_id in stretch]
            pageio.write_run(self.index_file, page_ids[0],
                             [bytes(staged[page_id]) for page_id in page_ids],
                             component="schemes")
        self.codec.finish(self.vpage_file)

    def _write_cell(self, cell: CellVPages,
                    staged: Dict[int, bytearray]) -> None:
        """Append the cell's V-pages in DFS order — one contiguous
        ascending run — and stage the segment pointing at them on its
        index pages (index page -> its bytes so far)."""
        assert self.index_file is not None
        codec = self.codec
        vpage_file = self.vpage_file
        codec.begin_cell(cell.cell_id)
        if isinstance(codec, RawVPageCodec):
            # The cell keeps each raw image, so the dataset's raw
            # builds encode it once between them.
            page_size = vpage_file.page_size
            pairs = [(offset, codec.append_image(
                vpage_file, cell.raw_image(offset, codec, page_size)))
                for offset in cell.visible_offsets_dfs()]
        else:
            pairs = [(offset, codec.append(vpage_file, cell.cell_id, offset,
                                           cell.ventries(offset)))
                     for offset in cell.visible_offsets_dfs()]
        data = self._encode_segment(pairs)
        page_id, offset = self._place_segment(cell.cell_id, len(data))
        self._cell_vnodes[cell.cell_id] = len(pairs)
        page_size = self.index_file.page_size
        while True:
            chunk = data[:page_size - offset]
            page = staged.setdefault(page_id, bytearray(page_size))
            page[offset:offset + len(chunk)] = chunk
            data = data[len(chunk):]
            if not data:
                break
            page_id, offset = page_id + 1, 0

    # -- read -----------------------------------------------------------------

    def cell_pointers(self, cell_id: int) -> List[Tuple[int, int]]:
        """The cell's ``(node offset, pointer)`` pairs, visible nodes
        only, read from its stored segment in DFS order."""
        span = self._segment_span(cell_id)
        if span is None:
            raise SchemeError(f"cell {cell_id} out of range")
        first_page, count, offset = span
        return self._decode_segment(
            cell_id, self._read_index_run(first_page, count)[offset:])

    def _read_index_run(self, first_page: int, count: int) -> bytes:
        """Read ``count`` consecutive index pages as one buffer.

        Without a page cache this is a single ``pageio.read_run``
        (retried as a unit).  With one, each page is fetched through
        the cache individually: hits are free, and misses — still in
        ascending page order, so the sequential-access accounting is
        preserved — are read and retried page-wise.
        """
        assert self.index_file is not None
        if self.page_cache is None:
            return pageio.read_run(self.index_file, first_page, count,
                                   component="schemes")
        cache = self.page_cache
        return b"".join(cache.get(self.index_file, first_page + i,
                                  reader=scheme_reader)
                        for i in range(count))

    def _load_cell(self, cell_id: int) -> None:
        """Flip: read the cell's whole segment sequentially.

        Through a pool the decoded segment is a plan (DESIGN.md §10
        "Query plans") under the token ``(index file id, cell)``: the
        first flip to the cell reads and remembers it, a later one, from
        any view over the pool, books the segment's page reads in one
        :meth:`BufferPool.recall` and decodes nothing.  The mapping is
        then shared by those views, so it is never changed in place.
        """
        pool = self.page_cache
        if pool is None:
            self._segment = dict(self.cell_pointers(cell_id))
            return
        index_file = self.index_file
        assert index_file is not None
        token = (index_file.file_id, cell_id)
        recalled = pool.recall(token, ((index_file, scheme_reader),))
        if recalled is not None:
            self._segment = recalled[0]
            return
        segment = dict(self.cell_pointers(cell_id))
        span = self._segment_span(cell_id)
        assert span is not None         # cell_pointers has read it
        first_page, count, _offset = span
        pool.remember(token, [(index_file.file_id, first_page + i)
                              for i in range(count)], segment)
        self._segment = segment

    def _reset_cell_state(self) -> None:
        self._segment = {}

    def ventries_page(self, node_offset: int) -> Optional[int]:
        # A raw pointer is the page id; a packed one is a stream offset.
        return None if self.codec.packed else self._segment.get(node_offset)

    def _segment_ventries(self, node_offset: int
                          ) -> Optional[Sequence[VEntry]]:
        """:meth:`ventries` of both subclasses: the pointer lookup is a
        memory access, only the V-page read is charged.  Each subclass
        still defines ``ventries`` itself because the benchmark's
        tracer patches it in the concrete class's own ``__dict__``."""
        self._require_cell()
        if not 0 <= node_offset < self.num_nodes:
            raise SchemeError(f"node offset {node_offset} out of range")
        pointer = self._segment.get(node_offset)
        if pointer is None:
            return None
        return self._decode_vpage_at(pointer, node_offset)

    @property
    def total_vnodes(self) -> int:
        """Live ``(cell, visible node)`` pairs — one V-page each: the
        ``N_vnode * c`` of the Section 4 storage formulas."""
        return sum(self._cell_vnodes.values())


def scheme_reader(pfile: PagedFile, first_page: int, count: int) -> bytes:
    """Buffer-pool miss reader: the sanctioned scheme-component read."""
    return pageio.read_run(pfile, first_page, count, component="schemes")
