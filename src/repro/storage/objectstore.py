"""Blob store for heavy-weight model data.

Object LoDs and internal LoDs are "heavy-weight" data in the paper: the
dominant I/O cost of a visibility query is fetching them.  The store
allocates whole page runs per blob so a fetch is one seek plus a
sequential scan.  A blob occupies the pages its logical byte size
covers (at least one), so the pages a fetch reads are the pages the
modelled data would fill.

A coarse LoD is a prefix of the finest one, so a reader that already
holds a prefix reads only the pages beyond it; :class:`SharedModels` is
what the sessions of one server hold, so that a page any of them holds
is not read again.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

    ``pfile`` is the backing paged file (it shares the experiment's disk
    model and stats).  A blob declared with ``logical_bytes = n``
    occupies ``ceil(n / page_size)`` pages, at least one.
    """

    def __init__(self, pfile: PagedFile) -> None:
        self.pfile = pfile
        self._blobs: Dict[int, BlobRef] = {}
        self._next_id = 0
        #: server (a buffer pool) -> what its sessions hold; forgotten
        #: with the server.
        self._shared: weakref.WeakKeyDictionary[object, SharedModels] = (
            weakref.WeakKeyDictionary())

    # -- write path ------------------------------------------------------------

    def put(self, logical_bytes: int) -> BlobRef:
        """Store a blob of modelled size ``logical_bytes``: its pages are
        allocated, not written (the experiments only need sizes and I/O
        counts)."""
        if logical_bytes < 0:
            raise StorageError(f"negative blob size: {logical_bytes}")
        num_pages = self._pages(logical_bytes)
        first = self.pfile.allocate_many(num_pages)
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

    def _pages(self, logical_bytes: int) -> int:
        """Pages ``logical_bytes`` of content fill: at least one."""
        return math.ceil(max(logical_bytes, 1) / self.pfile.page_size)

    def _prefix_pages(self, blob: BlobRef, logical_bytes: int) -> int:
        """Pages a prefix of ``logical_bytes`` covers: at least one."""
        if logical_bytes < 0:
            raise StorageError(f"negative prefix size: {logical_bytes}")
        return min(self._pages(min(logical_bytes, blob.logical_bytes)),
                   blob.num_pages)

    def fetch_prefix(self, blob_id: int, logical_bytes: int,
                     held_bytes: Optional[int] = None) -> int:
        """Read a prefix of the blob covering ``logical_bytes`` of content.

        Models progressive LoDs: a coarse representation is a prefix of
        the finest one, so reading at a lower detail level costs
        proportionally fewer pages, and a reader that already holds a
        prefix of ``held_bytes`` (``None``: nothing) reads only the pages
        beyond the ones that prefix covers — none, when the finer level
        ends inside them.  Returns the number of pages read.
        """
        blob = self.ref(blob_id)
        pages = self._prefix_pages(blob, logical_bytes)
        held = (0 if held_bytes is None
                else self._prefix_pages(blob, held_bytes))
        if pages <= held:
            return 0
        self.pfile.read_run(blob.first_page + held, pages - held)
        return pages - held

    def fetch_prefixes(self, wanted: Sequence[Tuple[int, int]]) -> int:
        """Read the prefix of each ``(blob_id, logical_bytes)`` in
        ``wanted``, in order, as one :meth:`fetch_prefix` per pair with
        nothing held would — charged through one
        :meth:`PagedFile.read_runs`.  Every id and size is checked before
        the first page is read.  Returns the number of pages read."""
        runs: List[Tuple[int, int]] = []
        for blob_id, logical_bytes in wanted:
            blob = self.ref(blob_id)
            runs.append((blob.first_page,
                         self._prefix_pages(blob, logical_bytes)))
        self.pfile.read_runs(runs)
        return sum(count for _first, count in runs)

    def shared_by(self, server: object) -> SharedModels:
        """What ``server``'s sessions hold of this store's blobs: one
        table per server (a buffer pool), made on first use and
        forgotten with the server."""
        table = self._shared.get(server)
        if table is None:
            table = self._shared[server] = SharedModels(self)
        return table

    # -- stats ------------------------------------------------------------

    @property
    def num_blobs(self) -> int:
        return len(self._blobs)

    @property
    def logical_bytes_total(self) -> int:
        return sum(b.logical_bytes for b in self._blobs.values())

    def __repr__(self) -> str:
        return (f"ObjectStore(blobs={self.num_blobs}, "
                f"logical={self.logical_bytes_total}B)")


class SharedModels:
    """What a set of holders — the sessions of one server, or one viewer
    alone — hold of each blob, as counts of live holders per prefix
    length.

    A read starts where the longest live prefix ends, so a page some
    holder has is not read again; what the table holds of a blob is that
    longest prefix — the per-blob maximum over the holders, so never
    more than the sum of what they hold.  It reads through
    :meth:`ObjectStore.fetch_prefix`.
    """

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        #: blob id -> {prefix bytes: live holders of that prefix}
        self._holders: Dict[int, Dict[int, int]] = {}

    def held_bytes(self, blob_id: int) -> Optional[int]:
        """The longest prefix of the blob a live holder has (``None``:
        nobody holds any)."""
        counts = self._holders.get(blob_id)
        return max(counts) if counts is not None else None

    def fetch_prefix(self, blob_id: int, logical_bytes: int,
                     held_bytes: Optional[int] = None) -> int:
        """A holder of ``held_bytes`` of the blob (``None``: of nothing)
        now wants ``logical_bytes``: read the pages no live holder has —
        its own prefix is one of the live ones — then count it as
        holding ``logical_bytes``.  A read that raises changes nothing.
        Returns the number of pages read."""
        pages = self.store.fetch_prefix(blob_id, logical_bytes,
                                        self.held_bytes(blob_id))
        if held_bytes is not None:
            self.release(blob_id, held_bytes)
        counts = self._holders.setdefault(blob_id, {})
        counts[logical_bytes] = counts.get(logical_bytes, 0) + 1
        return pages

    def release(self, blob_id: int, logical_bytes: int) -> None:
        """A holder of ``logical_bytes`` of the blob holds it no more."""
        counts = self._holders[blob_id]
        if counts[logical_bytes] > 1:
            counts[logical_bytes] -= 1
            return
        del counts[logical_bytes]
        if not counts:
            del self._holders[blob_id]

    def __iter__(self) -> Iterator[int]:
        """Ids of the blobs some live holder has a prefix of."""
        return iter(self._holders)

    def __len__(self) -> int:
        return len(self._holders)
