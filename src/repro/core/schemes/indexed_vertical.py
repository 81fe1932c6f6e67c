"""The indexed-vertical storage scheme (paper, Section 4.3).

A :class:`~repro.core.schemes.base.SegmentScheme` whose per-cell
segment stores only the *visible* nodes' ``(node offset, V-page
pointer)`` pairs — segments are variable-length, filled onto the index
pages in cell order and addressed through a one-to-one directory (cell
id -> first page, page count, byte offset).  Flipping costs
``O(N_vnode)`` I/Os instead of ``O(N_node)``.

Storage cost:
``(size_pointer + size_integer) * N_vnode * c + size_vpage * N_vnode * c``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import SIZE_INTEGER, SIZE_POINTER
from repro.core.schemes.base import SegmentScheme, StorageBreakdown
from repro.core.vpage import VEntry
from repro.storage.pagedfile import PagedFile
from repro.storage.serializer import decode_index_pairs, encode_index_pairs
from repro.storage.vpagecodec import VPageCodec

_PAIR_BYTES = SIZE_POINTER + SIZE_INTEGER


class IndexedVerticalScheme(SegmentScheme):

    name = "indexed-vertical"

    def __init__(self, vpage_file: PagedFile, index_file: PagedFile,
                 codec: Optional[VPageCodec] = None) -> None:
        super().__init__(vpage_file, index_file, codec=codec)
        #: cell id -> (first index page, page count, byte offset).
        self._directory: Dict[int, Tuple[int, int, int]] = {}
        #: ``(last index page, bytes used on it)``: where the next
        #: segment goes when it fits there.
        self._tail: Optional[Tuple[int, int]] = None

    def _segment_span(self, cell_id: int
                      ) -> Optional[Tuple[int, int, int]]:
        return self._directory.get(cell_id)

    def _place_segment(self, cell_id: int, nbytes: int) -> Tuple[int, int]:
        assert self.index_file is not None
        page_size = self.index_file.page_size
        if self._tail is not None and self._tail[1] + nbytes <= page_size:
            first, offset = self._tail
        else:
            first = self.index_file.allocate_many(
                max(-(-nbytes // page_size), 1))
            offset = 0
        count = max(-(-(offset + nbytes) // page_size), 1)
        self._directory[cell_id] = (first, count, offset)
        self._tail = (first + count - 1,
                      offset + nbytes - (count - 1) * page_size)
        return first, offset

    def _encode_segment(self, pairs: List[Tuple[int, int]]) -> bytes:
        return encode_index_pairs(pairs)

    def _decode_segment(self, cell_id: int,
                        data: bytes) -> List[Tuple[int, int]]:
        return decode_index_pairs(data, self._cell_vnodes[cell_id])

    def ventries(self, node_offset: int) -> Optional[Sequence[VEntry]]:
        return self._segment_ventries(node_offset)

    def storage_breakdown(self) -> StorageBreakdown:
        # (size_pointer + size_integer) * N_vnode * c
        #   + size_vpage * N_vnode * c
        return StorageBreakdown(
            scheme=self.name,
            vpage_bytes=self.codec.storage_vpage_bytes(
                self.vpage_file.page_size, self.total_vnodes),
            index_bytes=_PAIR_BYTES * self.total_vnodes,
        )

    def resident_bytes(self) -> int:
        return _PAIR_BYTES * len(self._segment)

    @property
    def avg_visible_nodes(self) -> float:
        """Mean N_vnode over cells — eq. 7's bounded quantity."""
        if not self.num_cells:
            return 0.0
        return self.total_vnodes / self.num_cells
