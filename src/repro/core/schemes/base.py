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

#: Default cap on the warm prefetch buffer: one cell ahead plus one
#: stale entry about to be evicted.  A warm entry for a cell the viewer
#: never flips to must not be kept forever (the serving path never
#: calls ``drop_prefetches``), so the buffer keeps only the most
#: recently prefetched K cells.
DEFAULT_WARM_CAPACITY = 2


class StorageScheme(abc.ABC):
    """Abstract base of the three storage schemes."""

    name: str = "abstract"

    def __init__(self, vpage_file: PagedFile,
                 index_file: Optional[PagedFile] = None,
                 warm_capacity: int = DEFAULT_WARM_CAPACITY,
                 codec: Optional[VPageCodec] = None) -> None:
        if warm_capacity < 1:
            raise SchemeError(
                f"warm_capacity must be >= 1, got {warm_capacity}")
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
        #: Prefetched per-cell state (double buffering): cell id ->
        #: captured segment state, installed for free at flip time.
        #: Bounded: insertion-ordered, the oldest entry is evicted once
        #: more than ``warm_capacity`` cells are warm.
        self._warm: Dict[int, object] = {}
        self.warm_capacity = warm_capacity
        self.prefetched_flips = 0
        registry = get_registry()
        self._m_flips = registry.counter(names.SCHEME_FLIPS,
                                         scheme=self.name)
        self._m_warm_flips = registry.counter(
            names.SCHEME_PREFETCHED_FLIPS, scheme=self.name)
        self._m_prefetches = registry.counter(names.SCHEME_PREFETCHES,
                                              scheme=self.name)

    # -- build -------------------------------------------------------------

    @abc.abstractmethod
    def build(self, num_nodes: int, cells: List[CellVPages]) -> None:
        """Lay out all cells' V-pages on disk.  ``num_nodes`` is the total
        node count (DFS offsets are < num_nodes)."""

    # -- runtime ------------------------------------------------------------

    def flip_to_cell(self, cell_id: int) -> None:
        """Make ``cell_id`` the current cell, paying the flip I/O —
        unless the cell was prefetched, in which case the warm state is
        installed for free.

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
        warm = self._warm.pop(cell_id, None)
        if warm is not None:
            self._restore_cell_state(warm)
            self.prefetched_flips += 1
            self._m_warm_flips.inc()
        else:
            self._load_cell(cell_id)
        self.current_cell = cell_id
        self.flips += 1
        self._m_flips.inc()

    def prefetch_cell(self, cell_id: int) -> bool:
        """Read ``cell_id``'s per-cell structures *now* (charging the
        I/O on the current, presumably quiet, frame) and stash them so
        the eventual flip is free.  A later flip to a different cell
        simply leaves the warm entry unused (bounded by
        ``warm_capacity``: the oldest warm entry is evicted first).

        Returns whether a prefetch actually happened: ``False`` when the
        target is already current or already warm, so callers' counters
        stay in agreement with the ``scheme_prefetches_total`` metric,
        which only counts issued work.
        """
        if cell_id == self.current_cell or cell_id in self._warm:
            return False
        self._m_prefetches.inc()
        current_state = self._capture_cell_state()
        self._load_cell(cell_id)
        self._warm[cell_id] = self._capture_cell_state()
        # Restore the active cell's state without re-reading it.
        if self.current_cell is not None and current_state is not None:
            self._restore_cell_state(current_state)
        while len(self._warm) > self.warm_capacity:
            oldest = next(iter(self._warm))
            del self._warm[oldest]
            # Created lazily: runs that never overflow the warm buffer
            # register no eviction series.
            get_registry().counter(names.SCHEME_WARM_EVICTIONS,
                                   scheme=self.name).inc()
        return True

    def drop_prefetches(self) -> None:
        """Discard warm cells (e.g. the viewer changed direction)."""
        self._warm.clear()

    # -- serving support ------------------------------------------------------

    def session_view(self) -> "StorageScheme":
        """A lightweight per-session clone for concurrent serving.

        The clone shares the built on-disk structures (files,
        directory, page cache, metric handles) with its parent but
        owns private *flip state* — current cell, loaded segment,
        prefetch buffer — so two sessions standing in different cells
        do not clobber each other's V-page index.  Counters on the
        clone start at zero; the shared metric series keep aggregating
        across all views of the scheme.
        """
        clone = copy.copy(self)
        clone.current_cell = None
        clone.flips = 0
        clone.prefetched_flips = 0
        clone._warm = {}
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
                                       reader=_scheme_reader)
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
                                       reader=_scheme_reader,
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
                                  reader=_scheme_reader)
                        for i in range(count))

    @abc.abstractmethod
    def _load_cell(self, cell_id: int) -> None:
        """Scheme-specific flip work (may be a no-op)."""

    # -- speculative prefetch (serving) ---------------------------------------

    def prefetch_pages(self, cell_id: int) -> List[int]:
        """Index pages a flip to ``cell_id`` would read, in read order.

        Pure addressing — no I/O.  The serving prefetcher feeds these to
        ``BufferPool.prefetch`` so the flip's demand reads hit.  Empty
        for schemes without a per-cell index (the horizontal scheme's
        flips are free).
        """
        return []

    def decode_cell_pointers(self, cell_id: int, data: bytes) -> List[int]:
        """V-page pointers of ``cell_id`` from its raw index bytes.

        ``data`` is the concatenation of the pages named by
        :meth:`prefetch_pages`; decoding is pure, so the prefetcher can
        chase index bytes it already holds into V-page prefetches
        without charging demand reads.  Empty when the scheme keeps no
        per-cell index.
        """
        return []

    def _capture_cell_state(self) -> Optional[object]:
        """Snapshot of the loaded per-cell state (``None`` when the
        scheme keeps none, like the horizontal scheme)."""
        return None

    def _restore_cell_state(self, state: object) -> None:
        """Install a snapshot captured by :meth:`_capture_cell_state`.

        Deliberately a no-op hook (not abstract): stateless schemes
        never capture anything, so there is nothing to restore.
        """
        return None

    def _cell_state_bytes(self, state: Optional[object]) -> int:
        """Resident size of one captured cell state (0 when stateless)."""
        return 0

    def warm_bytes(self) -> int:
        """Bytes held by the warm prefetch buffer — part of the scheme's
        runtime residency, so :meth:`resident_bytes` must include it."""
        return sum(self._cell_state_bytes(state)
                   for state in self._warm.values())

    @abc.abstractmethod
    def ventries(self, node_offset: int) -> Optional[Sequence[VEntry]]:
        """Current cell's V-page of a node; ``None`` if invisible.
        Charges the V-page read through the backing file.  The entries
        may be shared with other sessions: read-only."""

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
        # re-pay its page reads, and the layout replays rely on before/
        # after runs starting from the same empty cache.
        self._vpage_read_cache.clear()

    def reset_runtime_state(self) -> None:
        """Forget *all* runtime state — current cell, loaded segment,
        warm buffer, file heads, read cache — returning the scheme to
        its just-built condition.  The layout replays call this between
        runs so before/after measurements start from identical state."""
        self.current_cell = None
        self._reset_cell_state()
        self.drop_prefetches()
        self.reset_io_head()

    # -- layout rewriting ------------------------------------------------------

    def cell_pointers(self, cell_id: int) -> List[Tuple[int, int]]:
        """``(node offset, V-page pointer)`` pairs of one cell, in the
        cell's on-disk V-page order — the unit the layout rewriter
        reorders.  Reads the scheme's index structures (charged I/O;
        callers reset stats around rewrites)."""
        raise SchemeError(
            f"{self.name}: scheme does not expose cell pointers")

    def apply_layout(self, remap: Dict[int, int]) -> None:
        """Rewrite stored V-page pointers through ``remap`` (old -> new)
        after the V-page file has been physically reordered."""
        raise SchemeError(
            f"{self.name}: scheme does not support layout rewriting")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(cell={self.current_cell}, "
                f"flips={self.flips})")


def _scheme_reader(pfile: PagedFile, page_id: int) -> bytes:
    """Buffer-pool miss reader: the sanctioned scheme-component read."""
    return pageio.read_page(pfile, page_id, component="schemes")


def vpages_needed(num_entries: int, page_size: int, header: int,
                  ventry_size: int) -> int:
    """Pages needed for one node's V-entries (always >= 1)."""
    payload = header + num_entries * ventry_size
    if payload > page_size:
        raise SchemeError(
            f"V-page overflow: {num_entries} entries need {payload} bytes")
    return 1
