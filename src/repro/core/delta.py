"""Delta search — temporal coherence for walkthroughs (paper, Section 5.4).

"Two neighboring cells often share a number of visible objects.  For
VISUAL, the search algorithm can be improved to a 'delta' search
algorithm which does not retrieve objects that have been retrieved in
the previous queries.  As the models stored in the database are
heavy-weighted, delta search algorithm can reduce the I/O cost
significantly."

The delta layer wraps :class:`~repro.core.search.HDoVSearch`: it runs the
light-weight traversal every frame (nodes and V-pages are cheap) but
skips the heavy model fetch for any LoD already resident at sufficient
detail.  It also tracks the resident set's byte size, which is the
VISUAL system's memory footprint in Section 5.4's memory comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.search import HDoVSearch, SearchResult
from repro.errors import HDoVError
from repro.geometry.vec import PointLike


@dataclass
class _Resident:
    """One cached representation: its blend fraction and byte size."""

    fraction: float
    bytes: int


class DeltaSearch:
    """Stateful walkthrough search with a resident model set.

    Parameters
    ----------
    search:
        The underlying searcher.  It must have ``fetch_models=False``;
        the delta layer performs (and charges) the model fetches itself
        so it can skip the ones already resident.
    keep_offscreen:
        When True, representations that drop out of the answer set stay
        cached (more memory, fewer re-fetches when the viewer returns).
        The paper's VISUAL holds tens of MB of model data resident while
        *tree nodes* are uncached ("None of the two systems caches the
        tree nodes in the queries"), so model caching defaults to True;
        the light-weight traversal always re-runs.
    """

    def __init__(self, search: HDoVSearch, *,
                 keep_offscreen: bool = True,
                 cache_budget_bytes: Optional[int] = None) -> None:
        if search.fetch_models:
            raise HDoVError(
                "DeltaSearch needs a searcher with fetch_models=False")
        if cache_budget_bytes is not None and cache_budget_bytes < 0:
            raise HDoVError(
                f"negative cache budget: {cache_budget_bytes}")
        self.search = search
        self.keep_offscreen = keep_offscreen
        #: Optional cap on resident model bytes.  Off-screen entries are
        #: evicted least-recently-used first; entries in the current
        #: answer set are never evicted.  This is what keeps the paper's
        #: VISUAL at a bounded working set (28 MB on a 1.6 GB dataset).
        self.cache_budget_bytes = cache_budget_bytes
        self._objects: Dict[int, _Resident] = {}
        self._internals: Dict[int, _Resident] = {}
        #: Running byte total of ``_objects`` + ``_internals``: the frame
        #: loop reads it every frame, the sets change only on a query.
        self._resident_bytes = 0
        self.fetches = 0
        self.skipped = 0
        self.evictions = 0

    # -- queries -------------------------------------------------------------

    def query_point(self, point: PointLike, eta: float) -> SearchResult:
        return self.query_cell(self.search.env.grid.cell_of_point(point), eta)

    def query_cell(self, cell_id: int, eta: float) -> SearchResult:
        """Run the traversal, fetching only non-resident model data."""
        return self._integrate(self.search.query_cell(cell_id, eta))

    def query_cell_degraded(self, cell_id: int, eta: float) -> SearchResult:
        """Overload path (PR 5): the root-LoD-only degraded query.

        Same residency logic as :meth:`query_cell` — if the root's
        internal LoD is already cached at full detail, shedding load
        costs no heavy I/O at all.
        """
        return self._integrate(
            self.search.query_cell_degraded(cell_id, eta))

    def _integrate(self, result: SearchResult) -> SearchResult:
        """Fetch the result's non-resident models and update the cache."""
        env = self.search.env
        #: Net growth of the resident set if nothing is dropped: bytes
        #: fetched minus the coarser copies they replace.
        grown = 0

        new_objects: Dict[int, _Resident] = {}
        for obj in result.objects:
            resident = self._objects.get(obj.object_id)
            if resident is not None and resident.fraction >= obj.fraction:
                # Already resident at sufficient (or better) detail.
                self.skipped += 1
                new_objects[obj.object_id] = resident
                continue
            record = env.objects[obj.object_id]
            env.object_store.fetch_prefix(record.blob_id, obj.bytes)
            self.fetches += 1
            new_objects[obj.object_id] = _Resident(obj.fraction, obj.bytes)
            grown += obj.bytes - (
                resident.bytes if resident is not None else 0)

        new_internals: Dict[int, _Resident] = {}
        for internal in result.internals:
            resident = self._internals.get(internal.node_offset)
            if resident is not None and resident.fraction >= internal.fraction:
                self.skipped += 1
                new_internals[internal.node_offset] = resident
                continue
            record = env.internals[internal.node_offset]
            env.object_store.fetch_prefix(record.blob_id, internal.bytes)
            self.fetches += 1
            new_internals[internal.node_offset] = _Resident(
                internal.fraction, internal.bytes)
            grown += internal.bytes - (
                resident.bytes if resident is not None else 0)

        if self.keep_offscreen:
            # Merge, oldest entries first so dict order is LRU-ish:
            # off-screen survivors keep their old rank, entries in the
            # current result move to the back (most recent).
            merged_objects = {k: v for k, v in self._objects.items()
                              if k not in new_objects}
            merged_objects.update(new_objects)
            merged_internals = {k: v for k, v in self._internals.items()
                                if k not in new_internals}
            merged_internals.update(new_internals)
            self._objects = merged_objects
            self._internals = merged_internals
            self._resident_bytes += grown
            self._apply_budget(set(new_objects), set(new_internals))
        else:
            self._objects = new_objects
            self._internals = new_internals
            self._resident_bytes = (
                sum(r.bytes for r in new_objects.values())
                + sum(r.bytes for r in new_internals.values()))
        return result

    def _apply_budget(self, live_objects: Set[int],
                      live_internals: Set[int]) -> None:
        """Evict least-recently-used off-screen entries over budget."""
        if self.cache_budget_bytes is None:
            return
        for oid in list(self._objects):
            if self._resident_bytes <= self.cache_budget_bytes:
                return
            if oid in live_objects:
                continue
            self._resident_bytes -= self._objects.pop(oid).bytes
            self.evictions += 1
        for offset in list(self._internals):
            if self._resident_bytes <= self.cache_budget_bytes:
                return
            if offset in live_internals:
                continue
            self._resident_bytes -= self._internals.pop(offset).bytes
            self.evictions += 1

    # -- memory accounting -------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes of model data currently held in memory."""
        return self._resident_bytes

    @property
    def resident_count(self) -> int:
        return len(self._objects) + len(self._internals)

    def clear(self) -> None:
        self._objects.clear()
        self._internals.clear()
        self._resident_bytes = 0

    def __repr__(self) -> str:
        return (f"DeltaSearch(resident={self.resident_count}, "
                f"bytes={self.resident_bytes}, fetches={self.fetches}, "
                f"skipped={self.skipped})")
