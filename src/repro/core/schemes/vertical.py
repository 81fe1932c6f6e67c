"""The vertical storage scheme (paper, Section 4.2).

A :class:`~repro.core.schemes.base.SegmentScheme` whose V-page-index
file is an array of ``c`` fixed-size segments, each holding ``N_node``
V-page pointers (``NIL`` for invisible nodes) and found at a formula
address.  Flipping to a cell reads the whole segment sequentially:
``size_pointer * N_node / size_page`` page accesses — the scalability
weakness the indexed-vertical scheme fixes.

Storage cost: ``size_pointer * N_node * c + size_vpage * N_vnode * c``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.constants import SIZE_POINTER
from repro.core.schemes.base import SegmentScheme, StorageBreakdown
from repro.core.vpage import VEntry
from repro.errors import SchemeError
from repro.storage.pagedfile import PagedFile
from repro.storage.serializer import (NIL, decode_pointer_array,
                                      encode_pointer_array)
from repro.storage.vpagecodec import VPageCodec


class VerticalScheme(SegmentScheme):

    name = "vertical"

    def __init__(self, vpage_file: PagedFile, index_file: PagedFile,
                 codec: Optional[VPageCodec] = None) -> None:
        super().__init__(vpage_file, index_file, codec=codec)
        #: ``(first page of the segment array, pages per segment)``,
        #: allocated whole when the first segment is placed.
        self._array: Optional[Tuple[int, int]] = None

    def _segment_span(self, cell_id: int) -> Optional[Tuple[int, int]]:
        if self._array is None or not 0 <= cell_id < self.num_cells:
            return None
        first, segment_pages = self._array
        return first + cell_id * segment_pages, segment_pages

    def _place_segment(self, cell_id: int, num_pages: int) -> int:
        assert self.index_file is not None
        if self._array is None:
            self._array = (self.index_file.allocate_many(
                num_pages * self.num_cells), num_pages)
        span = self._segment_span(cell_id)
        if span is None or span[1] != num_pages:
            raise SchemeError(
                f"cell {cell_id} has no {num_pages}-page slot in the "
                f"fixed segment array")
        return span[0]

    def _encode_segment(self, pairs: List[Tuple[int, int]]) -> bytes:
        pointers = [NIL] * self.num_nodes
        for offset, pointer in pairs:
            pointers[offset] = pointer
        return encode_pointer_array(pointers)

    def _decode_segment(self, cell_id: int,
                        data: bytes) -> List[Tuple[int, int]]:
        return [(offset, pointer) for offset, pointer
                in enumerate(decode_pointer_array(data, self.num_nodes))
                if pointer != NIL]

    def ventries(self, node_offset: int) -> Optional[Sequence[VEntry]]:
        return self._segment_ventries(node_offset)

    def storage_breakdown(self) -> StorageBreakdown:
        # size_pointer * N_node * c + size_vpage * N_vnode * c
        return StorageBreakdown(
            scheme=self.name,
            vpage_bytes=self.codec.storage_vpage_bytes(
                self.vpage_file.page_size, self.total_vnodes),
            index_bytes=SIZE_POINTER * self.num_nodes * self.num_cells,
        )

    def resident_bytes(self) -> int:
        return SIZE_POINTER * self.num_nodes
