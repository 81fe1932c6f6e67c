"""The vertical storage scheme (paper, Section 4.2).

Structures:

* **V-page-index file** — ``c`` fixed-size segments, each holding
  ``N_node`` V-page pointers (``NIL`` for invisible nodes).  Flipping to a
  cell reads the whole segment sequentially:
  ``size_pointer * N_node / size_page`` page accesses.
* **V-page file** — per cell, the V-pages of the cell's *visible* nodes
  stored contiguously "in the order of the tree nodes accessed in the
  depth-first traversal, so that all V-pages accessed during a visibility
  query can be retrieved in a sequential scan."

Runtime: the current segment is memory-resident, so finding a node's
V-page pointer is a memory access; only the V-page read costs I/O.

Storage cost: ``size_pointer * N_node * c + size_vpage * N_vnode * c``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import SIZE_POINTER
from repro.core.schemes.base import (DEFAULT_WARM_CAPACITY,
                                     StorageBreakdown, StorageScheme)
from repro.core.vpage import CellVPages, VEntry
from repro.errors import SchemeError
from repro.storage import pageio
from repro.storage.pagedfile import PagedFile
from repro.storage.serializer import (NIL, decode_pointer_array,
                                      encode_pointer_array)
from repro.storage.vpagecodec import VPageCodec


class VerticalScheme(StorageScheme):

    name = "vertical"

    def __init__(self, vpage_file: PagedFile, index_file: PagedFile,
                 warm_capacity: int = DEFAULT_WARM_CAPACITY,
                 codec: Optional[VPageCodec] = None) -> None:
        super().__init__(vpage_file, index_file,
                         warm_capacity=warm_capacity, codec=codec)
        self.num_nodes = 0
        self.num_cells = 0
        self._segment_pages = 0
        self._index_first_page: Optional[int] = None
        self._current_segment: List[int] = []
        self._total_vpages = 0

    # -- build --------------------------------------------------------------

    def build(self, num_nodes: int, cells: List[CellVPages]) -> None:
        if self._index_first_page is not None:
            raise SchemeError("vertical scheme already built")
        if self.index_file is None:
            raise SchemeError("vertical scheme needs an index file")
        self.num_nodes = num_nodes
        self.num_cells = len(cells)
        if self.num_cells == 0:
            raise SchemeError("no cells to build")
        self._segment_pages = max(
            int(math.ceil(num_nodes * SIZE_POINTER
                          / self.index_file.page_size)), 1)
        self._index_first_page = self.index_file.allocate_many(
            self._segment_pages * self.num_cells)

        for cell in cells:
            pointers = [NIL] * num_nodes
            # DFS order == offset order; contiguous allocation per cell.
            self.codec.begin_cell(cell.cell_id)
            for offset in cell.visible_offsets_dfs():
                pointers[offset] = self.codec.append(
                    self.vpage_file, cell.cell_id, offset,
                    cell.ventries(offset))
                self._total_vpages += 1
            self._write_segment(cell.cell_id, pointers)
        self.codec.finish(self.vpage_file)

    def _write_segment(self, cell_id: int, pointers: List[int]) -> None:
        assert self.index_file is not None
        data = encode_pointer_array(pointers)
        first = self._segment_first_page(cell_id)
        page_size = self.index_file.page_size
        for i in range(self._segment_pages):
            chunk = data[i * page_size:(i + 1) * page_size]
            pageio.write_page(self.index_file, first + i, chunk,
                              component="schemes")

    def _segment_first_page(self, cell_id: int) -> int:
        assert self._index_first_page is not None
        return self._index_first_page + cell_id * self._segment_pages

    # -- runtime -------------------------------------------------------------

    def _load_cell(self, cell_id: int) -> None:
        """Flip: read the whole ``N_node``-pointer segment sequentially.

        Cost is ``O(N_node)`` pages — the scalability weakness the
        indexed-vertical scheme fixes.
        """
        if not 0 <= cell_id < self.num_cells:
            raise SchemeError(f"cell {cell_id} out of range")
        data = self._read_index_run(self._segment_first_page(cell_id),
                                    self._segment_pages)
        self._current_segment = decode_pointer_array(data, self.num_nodes)

    def prefetch_pages(self, cell_id: int) -> List[int]:
        if self._index_first_page is None or \
                not 0 <= cell_id < self.num_cells:
            return []
        first = self._segment_first_page(cell_id)
        return list(range(first, first + self._segment_pages))

    def decode_cell_pointers(self, cell_id: int, data: bytes) -> List[int]:
        if not 0 <= cell_id < self.num_cells:
            return []
        pointers = decode_pointer_array(data, self.num_nodes)
        return [pointer for pointer in pointers if pointer != NIL]

    def _reset_cell_state(self) -> None:
        self._current_segment = []

    def _capture_cell_state(self) -> Optional[List[int]]:
        return list(self._current_segment) if self._current_segment else None

    def _restore_cell_state(self, state: object) -> None:
        assert isinstance(state, list)
        self._current_segment = list(state)

    def _cell_state_bytes(self, state: Optional[object]) -> int:
        assert state is None or isinstance(state, list)
        return SIZE_POINTER * len(state) if state is not None else 0

    def ventries(self, node_offset: int) -> Optional[Sequence[VEntry]]:
        self._require_cell()
        if not 0 <= node_offset < self.num_nodes:
            raise SchemeError(f"node offset {node_offset} out of range")
        if not self._current_segment:
            raise SchemeError("segment not loaded")
        pointer = self._current_segment[node_offset]
        if pointer == NIL:
            return None
        return self._decode_vpage_at(pointer, node_offset)

    # -- reporting ------------------------------------------------------------

    def storage_breakdown(self) -> StorageBreakdown:
        # size_pointer * N_node * c + size_vpage * N_vnode * c
        return StorageBreakdown(
            scheme=self.name,
            vpage_bytes=self.codec.storage_vpage_bytes(
                self.vpage_file.page_size, self._total_vpages),
            index_bytes=SIZE_POINTER * self.num_nodes * self.num_cells,
        )

    # -- layout ---------------------------------------------------------------

    def cell_pointers(self, cell_id: int) -> List[Tuple[int, int]]:
        """Non-NIL ``(node_offset, pointer)`` pairs of one cell's segment."""
        if not 0 <= cell_id < self.num_cells:
            raise SchemeError(f"cell {cell_id} out of range")
        data = self._read_index_run(self._segment_first_page(cell_id),
                                    self._segment_pages)
        pointers = decode_pointer_array(data, self.num_nodes)
        return [(offset, pointer) for offset, pointer in enumerate(pointers)
                if pointer != NIL]

    def apply_layout(self, remap: Dict[int, int]) -> None:
        """Rewrite every segment, mapping old V-page pointers to new ones."""
        for cell_id in range(self.num_cells):
            data = self._read_index_run(self._segment_first_page(cell_id),
                                        self._segment_pages)
            pointers = decode_pointer_array(data, self.num_nodes)
            remapped = [remap.get(p, p) if p != NIL else NIL
                        for p in pointers]
            self._write_segment(cell_id, remapped)
        self._current_segment = []
        self.current_cell = None

    def resident_bytes(self) -> int:
        return SIZE_POINTER * self.num_nodes + self.warm_bytes()
