"""Blob store for heavy-weight model data.

Object LoDs and internal LoDs are "heavy-weight" data in the paper: the
dominant I/O cost of a visibility query is fetching them.  The store
allocates whole page runs per blob so a fetch is one seek plus a
sequential scan, and it records logical byte sizes separately so dataset
sizes can be modelled at full scale (400 MB–1.6 GB) while the simulator
optionally stores scaled-down payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import StorageError
from repro.storage.pagedfile import PagedFile


@dataclass(frozen=True)
class BlobRef:
    """Location and size of one stored blob."""

    blob_id: int
    first_page: int
    num_pages: int
    logical_bytes: int


class ObjectStore:
    """Append-only blob store over a :class:`PagedFile`.

    Parameters
    ----------
    pfile:
        Backing paged file (shares the experiment's disk model and stats).
    scale:
        Physical-payload scale factor in (0, 1].  A blob declared with
        ``logical_bytes = n`` occupies ``ceil(n * scale / page_size)``
        pages (at least 1).  Experiments that model multi-GB datasets use
        a small scale so runs stay laptop-sized; *reported* sizes always
        use ``logical_bytes``.
    """

    def __init__(self, pfile: PagedFile, *, scale: float = 1.0) -> None:
        if not 0.0 < scale <= 1.0:
            raise StorageError(f"scale must be in (0, 1], got {scale}")
        self.pfile = pfile
        self.scale = scale
        self._blobs: Dict[int, BlobRef] = {}
        self._next_id = 0

    # -- write path ------------------------------------------------------------

    def put(self, logical_bytes: int, payload: Optional[bytes] = None) -> BlobRef:
        """Store a blob of modelled size ``logical_bytes``.

        ``payload`` is optional real content; when omitted, zero pages are
        written (the experiments only need sizes and I/O counts).
        """
        if logical_bytes < 0:
            raise StorageError(f"negative blob size: {logical_bytes}")
        physical = max(int(math.ceil(logical_bytes * self.scale)), 1)
        num_pages = max(int(math.ceil(physical / self.pfile.page_size)), 1)
        first = self.pfile.allocate_many(num_pages)
        if payload is not None:
            for i in range(num_pages):
                chunk = payload[i * self.pfile.page_size:
                                (i + 1) * self.pfile.page_size]
                self.pfile.write_page(first + i, chunk)
        ref = BlobRef(self._next_id, first, num_pages, logical_bytes)
        self._blobs[ref.blob_id] = ref
        self._next_id += 1
        return ref

    # -- read path ------------------------------------------------------------

    def ref(self, blob_id: int) -> BlobRef:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise StorageError(f"unknown blob id {blob_id}") from None

    def fetch_prefix(self, blob_id: int, logical_bytes: int) -> int:
        """Read a prefix of the blob covering ``logical_bytes`` of content.

        Models progressive LoDs: a coarse representation is a prefix of
        the finest one, so reading at a lower detail level costs
        proportionally fewer pages.  Returns the number of pages read.
        """
        blob = self.ref(blob_id)
        if logical_bytes < 0:
            raise StorageError(f"negative prefix size: {logical_bytes}")
        logical_bytes = min(logical_bytes, blob.logical_bytes)
        physical = max(int(math.ceil(logical_bytes * self.scale)), 1)
        pages = min(max(int(math.ceil(physical / self.pfile.page_size)), 1),
                    blob.num_pages)
        self.pfile.read_run(blob.first_page, pages)
        return pages

    # -- stats ------------------------------------------------------------

    @property
    def num_blobs(self) -> int:
        return len(self._blobs)

    @property
    def logical_bytes_total(self) -> int:
        return sum(b.logical_bytes for b in self._blobs.values())

    def __repr__(self) -> str:
        return (f"ObjectStore(blobs={self.num_blobs}, "
                f"logical={self.logical_bytes_total}B, scale={self.scale})")
