"""The naive (cell, list-of-objects) baseline (paper, Sections 1, 3, 5.3).

"In our implementation, this scheme accesses the V-pages of visible leaf
nodes only.  Moreover, all the models retrieved by the algorithm are from
the object LoDs."

Each cell therefore stores one page per *visible leaf node*, holding that
node's visible ``(object id, DoV)`` records; a query reads the cell's run
of leaf V-pages sequentially (no tree traversal, no internal nodes) and
fetches every listed object from the object LoDs at the eq.-6 blend —
exactly like the HDoV-tree's leaf retrieval, so the naive method
coincides with HDoV at ``eta = 0`` (the degeneration Figure 7 confirms),
while its light-weight I/O is the floor the HDoV-tree must beat in
Figure 8(b).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.constants import BYTES_PER_POLYGON
from repro.core.hdov_tree import HDoVEnvironment
from repro.errors import HDoVError
from repro.lod.selection import leaf_lod_fraction
from repro.storage import pageio
from repro.storage.pagedfile import PagedFile

#: Record layout: object id (u32) + DoV (f32).
_RECORD = struct.Struct("<If")
#: Page header: record count (u16).
_HEADER = struct.Struct("<H")


@dataclass
class NaiveResult:
    """Answer set and accounting of one naive query."""

    cell_id: int
    objects: List[Tuple[int, float]] = field(default_factory=list)
    #: Leaf V-pages read (the scheme's light-weight I/O).
    list_pages_read: int = 0
    total_polygons: int = 0
    total_model_bytes: int = 0

    @property
    def num_results(self) -> int:
        return len(self.objects)

    def object_ids(self) -> List[int]:
        return sorted(oid for oid, _ in self.objects)


class NaiveCellList:
    """Per-cell visible-leaf-V-page lists over the shared environment.

    Reuses the environment's visibility table, object records, object
    store and light/heavy stats, so naive and HDoV queries are charged by
    the same simulated disk.
    """

    def __init__(self, env: HDoVEnvironment, *,
                 fetch_models: bool = True) -> None:
        self.env = env
        self.fetch_models = fetch_models
        # The lists are light-weight data, like V-pages.
        self.list_file = PagedFile("naive-lists",
                                   page_size=env.config.page_size,
                                   disk=env.node_store.pfile.disk,
                                   stats=env.light_stats)
        #: cell id -> (first page, page count)
        self._directory: Dict[int, Tuple[int, int]] = {}
        self._build()

    def _build(self) -> None:
        # Visible objects grouped by their leaf node, in DFS (offset)
        # order — one page per visible leaf node, stored contiguously per
        # cell so a query is one sequential run.
        leaf_members: List[List[int]] = []
        for leaf in self.env.tree.iter_leaves():
            leaf_members.append([e.object_id for e in leaf.entries])
        for cell in self.env.visibility.cells():
            pages: List[bytes] = []
            for members in leaf_members:
                records = [(oid, cell.dov[oid]) for oid in members
                           if oid in cell.dov]
                if not records:
                    continue
                payload = _HEADER.pack(len(records)) + b"".join(
                    _RECORD.pack(oid, dov) for oid, dov in records)
                if len(payload) > self.list_file.page_size:
                    raise HDoVError("naive leaf page overflow")
                pages.append(payload)
            count = max(len(pages), 1)
            first = self.list_file.allocate_many(count)
            pageio.write_run(self.list_file, first, pages,
                             component="baselines")
            self._directory[cell.cell_id] = (first, count)
        # Building is preprocessing; do not let it pollute measurements.
        self.env.reset_stats()

    # -- queries -----------------------------------------------------------

    def query_point(self, point) -> NaiveResult:
        return self.query_cell(self.env.grid.cell_of_point(point))

    def query_cell(self, cell_id: int) -> NaiveResult:
        entry = self._directory.get(cell_id)
        if entry is None:
            raise HDoVError(f"cell {cell_id} out of range")
        first, num_pages = entry
        data = pageio.read_run(self.list_file, first, num_pages,
                               component="baselines")
        result = NaiveResult(cell_id=cell_id, list_pages_read=num_pages)
        wanted: List[Tuple[int, int]] = []
        page_size = self.list_file.page_size
        for page_index in range(num_pages):
            base = page_index * page_size
            (count,) = _HEADER.unpack_from(data, base)
            offset = base + _HEADER.size
            for _ in range(count):
                oid, dov = _RECORD.unpack_from(data, offset)
                offset += _RECORD.size
                result.objects.append((oid, dov))
                record = self.env.objects[oid]
                k = leaf_lod_fraction(dov)
                polygons = record.chain.interpolated_polygons(k)
                nbytes = polygons * BYTES_PER_POLYGON
                result.total_polygons += polygons
                result.total_model_bytes += nbytes
                wanted.append((record.blob_id, nbytes))
        if self.fetch_models:
            self.env.object_store.fetch_prefixes(wanted)
        return result

    def reset_io_head(self) -> None:
        self.list_file.reset_head()
