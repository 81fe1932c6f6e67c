"""The vertical storage scheme (paper, Section 4.2).

A :class:`~repro.core.schemes.base.SegmentScheme` whose V-page-index
file is an array of ``c`` fixed-size segments, each holding ``N_node``
V-page pointers (``NIL`` for invisible nodes) and found at a formula
address: ``k = size_page // (size_pointer * N_node)`` segments share a
page, cell ``c`` in slot ``c % k`` of page ``c // k``.  Flipping to a
cell reads the whole segment sequentially:
``size_pointer * N_node / size_page`` page accesses (at least one) — the
scalability weakness the indexed-vertical scheme fixes.

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
        #: ``(first page of the segment array, slot bytes)``, allocated
        #: whole when the first segment is placed.  The slot is the
        #: build's ``size_pointer * N_node``.
        self._array: Optional[Tuple[int, int]] = None

    def _segment_span(self, cell_id: int
                      ) -> Optional[Tuple[int, int, int]]:
        if self._array is None or not 0 <= cell_id < self.num_cells:
            return None
        assert self.index_file is not None
        first, slot = self._array
        page_size = self.index_file.page_size
        per_page = page_size // slot
        if per_page:
            return (first + cell_id // per_page, 1,
                    cell_id % per_page * slot)
        pages = -(-slot // page_size)
        return first + cell_id * pages, pages, 0

    def _place_segment(self, cell_id: int, nbytes: int) -> Tuple[int, int]:
        assert self.index_file is not None
        if self._array is None:
            slot = max(nbytes, SIZE_POINTER)
            page_size = self.index_file.page_size
            per_page = page_size // slot
            pages = (-(-self.num_cells // per_page) if per_page
                     else self.num_cells * -(-slot // page_size))
            self._array = (self.index_file.allocate_many(pages), slot)
        span = self._segment_span(cell_id)
        if span is None or nbytes > self._array[1]:
            raise SchemeError(
                f"cell {cell_id} has no {nbytes}-byte slot in the "
                f"fixed segment array")
        return span[0], span[2]

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
