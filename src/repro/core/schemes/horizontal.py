"""The horizontal storage scheme (paper, Section 4.1).

Every node owns a run of ``c`` V-pages, one per cell, indexed by cell id
— even for cells where the node is invisible (which is why the scheme's
storage cost is ``size_vpage * c * N_node``).  A V-page access is one
direct page read; there is no per-cell segment to flip.  Because the
V-pages touched by one query belong to many different nodes, consecutive
accesses land ``c`` pages apart and almost every access seeks — the
effect Figure 7 shows.

Invisibility is encoded *in* the page (all-zero DoVs), since the scheme
reserves space regardless.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.schemes.base import StorageBreakdown, StorageScheme
from repro.core.vpage import CellVPages, VEntry
from repro.errors import SchemeError
from repro.storage import pageio
from repro.storage.pagedfile import PagedFile
from repro.storage.vpagecodec import RawVPageCodec


class HorizontalScheme(StorageScheme):

    name = "horizontal"

    def __init__(self, vpage_file: PagedFile) -> None:
        # Always the raw codec: the scheme addresses V-pages by a
        # closed-form (offset, cell) -> page formula, which a packed
        # stream has no equivalent for.
        super().__init__(vpage_file, index_file=None)
        self.num_nodes = 0
        self.num_cells = 0
        self._first_page: Optional[int] = None
        #: entry counts per node offset, to materialise all-zero pages.
        self._entry_counts: Dict[int, int] = {}

    @property
    def _raw_codec(self) -> RawVPageCodec:
        assert isinstance(self.codec, RawVPageCodec)
        return self.codec

    def build(self, num_nodes: int, cells: List[CellVPages]) -> None:
        if self._first_page is not None:
            raise SchemeError("horizontal scheme already built")
        self.num_nodes = num_nodes
        self.num_cells = len(cells)
        if self.num_cells == 0:
            raise SchemeError("no cells to build")
        # Entry counts: any cell where the node is visible tells us; nodes
        # never visible anywhere still get (empty) pages.
        for cell in cells:
            for offset, ventries in cell.pages.items():
                self._entry_counts[offset] = len(ventries)
        self._first_page = self.vpage_file.allocate_many(
            self.num_nodes * self.num_cells)
        codec = self._raw_codec
        page_size = self.vpage_file.page_size
        # A node's page in a cell that does not see it is one all-zero
        # image, the same in every such cell: encode it once.  The
        # pages go out as one run in page-id order, node by node.
        invisible = [codec.encode_page(
            offset, [(0.0, 0)] * self._entry_counts.get(offset, 0), page_size)
            for offset in range(num_nodes)]
        images = [image for image in invisible
                  for _ in range(self.num_cells)]
        for cell in cells:
            for offset in cell.pages:
                images[offset * self.num_cells + cell.cell_id] = \
                    cell.raw_image(offset, codec, page_size)
        pageio.write_run(self.vpage_file, self._first_page, images,
                         component="schemes")

    def _page_id(self, node_offset: int, cell_id: int) -> int:
        assert self._first_page is not None
        return self._first_page + node_offset * self.num_cells + cell_id

    def _load_cell(self, cell_id: int) -> None:
        if not 0 <= cell_id < self.num_cells:
            raise SchemeError(f"cell {cell_id} out of range")
        # No per-cell structure: flipping is free.

    def ventries_page(self, node_offset: int) -> Optional[int]:
        return self._page_id(node_offset, self._require_cell())

    def ventries(self, node_offset: int) -> Optional[Sequence[VEntry]]:
        cell_id = self._require_cell()
        if not 0 <= node_offset < self.num_nodes:
            raise SchemeError(f"node offset {node_offset} out of range")
        ventries = self._decode_vpage_at(
            self._page_id(node_offset, cell_id), node_offset)
        if not any(d > 0.0 for d, _ in ventries):
            return None
        return ventries

    def storage_breakdown(self) -> StorageBreakdown:
        # size_vpage * c * N_node  (paper, Section 4.1)
        return StorageBreakdown(
            scheme=self.name,
            vpage_bytes=self.vpage_file.page_size * self.num_cells
            * self.num_nodes,
            index_bytes=0,
        )

    def resident_bytes(self) -> int:
        return 0  # stateless: no per-cell structure is kept
