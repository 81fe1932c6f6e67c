"""The indexed-vertical storage scheme (paper, Section 4.3).

Like the vertical scheme, but the per-cell segment stores only the
*visible* nodes' ``(node offset, V-page pointer)`` pairs — segments are
variable-length, addressed through a one-to-one directory (cell id ->
first page, pair count).  Flipping costs ``O(N_vnode)`` I/Os instead of
``O(N_node)``.

Storage cost:
``(size_pointer + size_integer) * N_vnode * c + size_vpage * N_vnode * c``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import SIZE_INTEGER, SIZE_POINTER
from repro.core.schemes.base import (DEFAULT_WARM_CAPACITY,
                                     StorageBreakdown, StorageScheme)
from repro.core.vpage import CellVPages, VEntry
from repro.errors import SchemeError
from repro.storage import pageio
from repro.storage.pagedfile import PagedFile
from repro.storage.serializer import decode_index_pairs, encode_index_pairs
from repro.storage.vpagecodec import VPageCodec


class IndexedVerticalScheme(StorageScheme):

    name = "indexed-vertical"

    def __init__(self, vpage_file: PagedFile, index_file: PagedFile,
                 warm_capacity: int = DEFAULT_WARM_CAPACITY,
                 codec: Optional[VPageCodec] = None) -> None:
        super().__init__(vpage_file, index_file,
                         warm_capacity=warm_capacity, codec=codec)
        self.num_nodes = 0
        self.num_cells = 0
        #: cell id -> (first index page, page count, pair count).
        self._directory: Dict[int, Tuple[int, int, int]] = {}
        self._current_pairs: Dict[int, int] = {}
        self._total_vpages = 0
        self._total_pairs = 0
        self._built = False

    # -- build ------------------------------------------------------------

    def build(self, num_nodes: int, cells: List[CellVPages]) -> None:
        if self._built:
            raise SchemeError("indexed-vertical scheme already built")
        if self.index_file is None:
            raise SchemeError("indexed-vertical scheme needs an index file")
        self.num_nodes = num_nodes
        self.num_cells = len(cells)
        if self.num_cells == 0:
            raise SchemeError("no cells to build")
        for cell in cells:
            pairs: List[Tuple[int, int]] = []
            self.codec.begin_cell(cell.cell_id)
            for offset in cell.visible_offsets_dfs():
                pointer = self.codec.append(
                    self.vpage_file, cell.cell_id, offset,
                    cell.ventries(offset))
                pairs.append((offset, pointer))
                self._total_vpages += 1
            self._total_pairs += len(pairs)
            self._write_pairs(cell.cell_id, pairs, allocate=True)
        self.codec.finish(self.vpage_file)
        self._built = True

    def _write_pairs(self, cell_id: int, pairs: List[Tuple[int, int]],
                     *, allocate: bool) -> None:
        """Write one cell's pair segment; allocates pages on first build,
        rewrites the already-allocated pages on layout updates."""
        assert self.index_file is not None
        data = encode_index_pairs(pairs)
        page_size = self.index_file.page_size
        num_pages = max(int(math.ceil(len(data) / page_size)), 1)
        if allocate:
            first = self.index_file.allocate_many(num_pages)
        else:
            first, old_pages, _count = self._directory[cell_id]
            assert old_pages == num_pages
        for i in range(num_pages):
            pageio.write_page(self.index_file, first + i,
                              data[i * page_size:(i + 1) * page_size],
                              component="schemes")
        self._directory[cell_id] = (first, num_pages, len(pairs))

    # -- runtime ------------------------------------------------------------

    def _load_cell(self, cell_id: int) -> None:
        """Flip: read only the visible nodes' pairs — ``O(N_vnode)`` I/O."""
        entry = self._directory.get(cell_id)
        if entry is None:
            raise SchemeError(f"cell {cell_id} out of range")
        first, num_pages, pair_count = entry
        data = self._read_index_run(first, num_pages)
        pairs = decode_index_pairs(data, pair_count)
        self._current_pairs = dict(pairs)

    def prefetch_pages(self, cell_id: int) -> List[int]:
        entry = self._directory.get(cell_id)
        if entry is None:
            return []
        first, num_pages, _pair_count = entry
        return list(range(first, first + num_pages))

    def decode_cell_pointers(self, cell_id: int, data: bytes) -> List[int]:
        entry = self._directory.get(cell_id)
        if entry is None:
            return []
        _first, _num_pages, pair_count = entry
        return [pointer for _offset, pointer
                in decode_index_pairs(data, pair_count)]

    def _reset_cell_state(self) -> None:
        self._current_pairs = {}

    def _capture_cell_state(self) -> Optional[Dict[int, int]]:
        return dict(self._current_pairs) if self._current_pairs else None

    def _restore_cell_state(self, state: object) -> None:
        assert isinstance(state, dict)
        self._current_pairs = dict(state)

    def _cell_state_bytes(self, state: Optional[object]) -> int:
        assert state is None or isinstance(state, dict)
        return ((SIZE_POINTER + SIZE_INTEGER) * len(state)
                if state is not None else 0)

    def ventries(self, node_offset: int) -> Optional[Sequence[VEntry]]:
        self._require_cell()
        if not 0 <= node_offset < self.num_nodes:
            raise SchemeError(f"node offset {node_offset} out of range")
        pointer = self._current_pairs.get(node_offset)
        if pointer is None:
            return None
        return self._decode_vpage_at(pointer, node_offset)

    # -- reporting ------------------------------------------------------------

    def storage_breakdown(self) -> StorageBreakdown:
        # (size_pointer + size_integer) * N_vnode * c
        #   + size_vpage * N_vnode * c
        return StorageBreakdown(
            scheme=self.name,
            vpage_bytes=self.codec.storage_vpage_bytes(
                self.vpage_file.page_size, self._total_vpages),
            index_bytes=(SIZE_POINTER + SIZE_INTEGER) * self._total_pairs,
        )

    # -- layout ---------------------------------------------------------------

    def cell_pointers(self, cell_id: int) -> List[Tuple[int, int]]:
        """Non-NIL ``(node_offset, pointer)`` pairs from the cell's
        directory segment, in stored (DFS) order."""
        entry = self._directory.get(cell_id)
        if entry is None:
            raise SchemeError(f"cell {cell_id} out of range")
        first, num_pages, pair_count = entry
        data = self._read_index_run(first, num_pages)
        return decode_index_pairs(data, pair_count)

    def apply_layout(self, remap: Dict[int, int]) -> None:
        """Rewrite every pair segment in place with remapped pointers.

        Segment sizes are unchanged (same pair counts), so the
        directory keeps its page spans.
        """
        for cell_id in sorted(self._directory):
            first, num_pages, pair_count = self._directory[cell_id]
            data = self._read_index_run(first, num_pages)
            pairs = decode_index_pairs(data, pair_count)
            remapped = [(offset, remap.get(pointer, pointer))
                        for offset, pointer in pairs]
            self._write_pairs(cell_id, remapped, allocate=False)
        self._current_pairs = {}
        self.current_cell = None

    def resident_bytes(self) -> int:
        return ((SIZE_POINTER + SIZE_INTEGER) * len(self._current_pairs)
                + self.warm_bytes())

    @property
    def avg_visible_nodes(self) -> float:
        """Mean N_vnode over cells — eq. 7's bounded quantity."""
        if not self.num_cells:
            return 0.0
        return self._total_pairs / self.num_cells
