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

"Skip what is held, fetch and charge the rest" is REVIEW's complement
search and the LoD-R-tree's too, so the mechanism is one class,
:class:`ResidentModels`, and its :meth:`~ResidentModels.want` is the one
place a walkthrough system fetches a model; what is dropped, and when,
stays each system's own policy.  A finer level extends the coarser
prefix already held, so a refinement reads only the pages it lacks.
Every set reads through a :class:`~repro.storage.objectstore.
SharedModels` table — its viewer's own, or under a pool the server's —
so it lacks only what no holder of that table has.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterator, Optional, Tuple

from repro.core.search import HDoVSearch, SearchResult
from repro.errors import HDoVError
from repro.geometry.vec import PointLike
from repro.storage.objectstore import SharedModels


class ResidentModels:
    """The representations a viewer holds: ``key -> (fraction, bytes)``,
    least recently wanted first, with a running byte total.

    ``store`` is the table a missing representation is fetched (and
    charged) through, told of every prefix this set stops holding
    (``HDoVEnvironment.models_table``); ``None`` holds the same
    bookkeeping without I/O (Figure 11 scores REVIEW's answer sets
    only).
    """

    def __init__(self, store: Optional[SharedModels]) -> None:
        self._store = store
        #: key -> (fraction, bytes, blob id)
        self._held: Dict[int, Tuple[float, int, int]] = {}
        #: Sum of the held byte sizes: frame loops read it every frame,
        #: the set changes only on a query.
        self.bytes = 0
        self.fetches = 0
        self.skipped = 0

    def want(self, key: int, blob_id: int, fraction: float,
             nbytes: int) -> bool:
        """Hold ``key`` at ``fraction`` or finer; True if that took a
        fetch.  Either way ``key`` becomes the most recently wanted."""
        held = self._held.get(key)
        if held is not None and held[0] >= fraction:
            # Already held at sufficient (or better) detail.
            self.skipped += 1
            del self._held[key]
            self._held[key] = held
            return False
        if self._store is not None:
            # Only the pages beyond the coarser prefix already held.
            self._store.fetch_prefix(blob_id, nbytes,
                                     None if held is None else held[1])
        self.fetches += 1
        if held is not None:
            # The coarser copy it replaces; the store has moved its hold.
            del self._held[key]
            self.bytes -= held[1]
        self._held[key] = (fraction, nbytes, blob_id)
        self.bytes += nbytes
        return True

    def drop(self, key: int) -> None:
        _fraction, nbytes, blob_id = self._held.pop(key)
        self.bytes -= nbytes
        if self._store is not None:
            self._store.release(blob_id, nbytes)

    def keep_only(self, keys: Collection[int]) -> None:
        """Drop every representation whose key is not in ``keys``."""
        for key in [k for k in self._held if k not in keys]:
            self.drop(key)

    def clear(self) -> None:
        for key in list(self._held):
            self.drop(key)

    def __iter__(self) -> Iterator[int]:
        return iter(self._held)

    def __len__(self) -> int:
        return len(self._held)

    def __getitem__(self, key: int) -> Tuple[float, int]:
        """``(fraction, bytes)`` of the representation held for ``key``."""
        fraction, nbytes, _blob_id = self._held[key]
        return fraction, nbytes


class DeltaSearch:
    """Stateful walkthrough search with a resident model set.

    Representations that drop out of the answer set stay held (more
    memory, fewer re-fetches when the viewer returns): the paper's
    VISUAL holds tens of MB of model data resident while *tree nodes*
    are uncached ("None of the two systems caches the tree nodes in the
    queries"); the light-weight traversal always re-runs.

    Parameters
    ----------
    search:
        The underlying searcher.  It must have ``fetch_models=False``;
        the delta layer performs (and charges) the model fetches itself
        so it can skip the ones already resident.
    """

    def __init__(self, search: HDoVSearch, *,
                 cache_budget_bytes: Optional[int] = None) -> None:
        if search.fetch_models:
            raise HDoVError(
                "DeltaSearch needs a searcher with fetch_models=False")
        if cache_budget_bytes is not None and cache_budget_bytes < 0:
            raise HDoVError(
                f"negative cache budget: {cache_budget_bytes}")
        self.search = search
        #: Optional cap on resident model bytes.  Off-screen entries are
        #: evicted least recently wanted first, objects before internal
        #: LoDs; entries in the current answer set are never evicted.
        #: This is what keeps the paper's VISUAL at a bounded working
        #: set (28 MB on a 1.6 GB dataset).
        self.cache_budget_bytes = cache_budget_bytes
        store = search.env.models_table()
        self._objects = ResidentModels(store)
        self._internals = ResidentModels(store)
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
        """Fetch the result's non-resident models, then fit the budget."""
        want = self._objects.want
        for obj in result.objects:
            want(obj.object_id, obj.blob_id, obj.fraction, obj.bytes)
        want = self._internals.want
        for internal in result.internals:
            want(internal.node_offset, internal.blob_id, internal.fraction,
                 internal.bytes)

        budget = self.cache_budget_bytes
        if budget is None:
            return result
        for resident, live in (
                (self._objects, {o.object_id for o in result.objects}),
                (self._internals, {i.node_offset for i in result.internals})):
            for key in list(resident):
                if self.resident_bytes <= budget:
                    return result
                if key not in live:
                    resident.drop(key)
                    self.evictions += 1
        return result

    # -- accounting ------------------------------------------------------------

    @property
    def fetches(self) -> int:
        return self._objects.fetches + self._internals.fetches

    @property
    def skipped(self) -> int:
        return self._objects.skipped + self._internals.skipped

    @property
    def resident_bytes(self) -> int:
        """Bytes of model data currently held in memory."""
        return self._objects.bytes + self._internals.bytes

    @property
    def resident_count(self) -> int:
        return len(self._objects) + len(self._internals)

    def clear(self) -> None:
        """Hold nothing — and let a shared table forget this viewer's
        holds with it."""
        self._objects.clear()
        self._internals.clear()

    def __repr__(self) -> str:
        return (f"DeltaSearch(resident={self.resident_count}, "
                f"bytes={self.resident_bytes}, fetches={self.fetches}, "
                f"skipped={self.skipped})")
