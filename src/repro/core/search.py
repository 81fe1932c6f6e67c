"""The HDoV-tree traversal algorithm (paper, Figure 3).

For each entry of each visited node:

* ``DoV == 0`` — prune the branch (line 3);
* leaf entry — retrieve the object LoD blended by eq. 6 (lines 4-5);
* internal entry with ``DoV <= eta`` *and* the polygon heuristic of
  eq. 4 satisfied — retrieve the node's internal LoD blended by eq. 5 and
  terminate the branch (lines 7-8);
* otherwise — recurse (line 10).

I/O is charged as the traversal goes: one page per node read, one per
V-page read (through the storage scheme), and the model-data pages for
every retrieved LoD (through the object store) — a leaf's objects in
one batch, after its entries have been read.

Degradation (PR 3): a V-page that is still unreadable after the pageio
retry budget — corrupt media or an exhausted transient fault — does not
abort the query.  The affected subtree falls back to its view-invariant
internal LoD at full detail (the HDoV-tree carries one for *every*
node, root included), which needs no V-page at all; the answer stays
complete, merely coarser.  Only the R-tree node file itself is beyond
rescue: without the node there is no entry list and no internal-LoD
pointer to fall back to, so node-store errors stay fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.constants import BYTES_PER_POLYGON, DEFAULT_LOD_RATIO
from repro.core.hdov_tree import HDoVEnvironment
from repro.core.schemes.base import StorageScheme, scheme_reader
from repro.core.vpage import VEntry
from repro.errors import HDoVError, PageCorruptError, TransientIOError
from repro.geometry.vec import PointLike
from repro.lod.selection import internal_lod_fraction, leaf_lod_fraction
from repro.obs import names
from repro.obs.metrics import Counter, get_registry
from repro.obs.trace import span
from repro.rtree.persist import rtree_reader

#: Storage failures the search survives by degrading to internal LoDs.
#: Anything else (PageNotFoundError, closed files, decode errors) is a
#: bug or unrecoverable state and propagates.
_DEGRADABLE = (PageCorruptError, TransientIOError)


class RetrievedObject(NamedTuple):
    """One object in the answer set, at its eq.-6 LoD.  Immutable:
    recalled plans share answers across sessions (DESIGN.md §10)."""

    object_id: int
    dov: float
    #: Blend factor k of eq. 6 (1 = finest).
    fraction: float
    polygons: int
    bytes: int
    #: The object store blob its model is read from.
    blob_id: int


class RetrievedInternal(NamedTuple):
    """One internal LoD in the answer set, at its eq.-5 blend."""

    node_offset: int
    dov: float
    #: Blend fraction DoV/eta of eq. 5.
    fraction: float
    polygons: int
    bytes: int
    #: Leaf objects this internal LoD stands in for.
    covered_objects: Tuple[int, ...]
    #: The object store blob its model is read from.
    blob_id: int


class PlanAnswer:
    """What a remembered query plan answers with (DESIGN.md §10 "Query
    plans"): the answer tuples, the five Figure-3 tallies and the
    polygon total, built once by the query that remembers the plan and
    shared by every session that recalls it, so none of it changes.

    ``fidelity`` is the one slot written after construction: the
    answer's fidelity score, derived from it and the environment's
    ground truth by the first :meth:`FidelityMetric.score_hdov
    <repro.walkthrough.metrics.FidelityMetric.score_hdov>` of it
    (``None`` until then).  It lives and dies with the plan.
    """

    __slots__ = ("objects", "internals", "nodes_read", "vpages_read",
                 "pruned", "terminated", "recursed", "total_polygons",
                 "fidelity", "__weakref__")

    def __init__(self, result: "SearchResult") -> None:
        self.objects = tuple(result.objects)
        self.internals = tuple(result.internals)
        self.nodes_read = result.nodes_read
        self.vpages_read = result.vpages_read
        self.pruned = result.pruned
        self.terminated = result.terminated
        self.recursed = result.recursed
        self.total_polygons = result.total_polygons
        self.fidelity: Optional[float] = None


@dataclass
class SearchResult:
    """Answer set plus accounting of one visibility query."""

    cell_id: int
    eta: float
    objects: List[RetrievedObject] = field(default_factory=list)
    internals: List[RetrievedInternal] = field(default_factory=list)
    nodes_read: int = 0
    vpages_read: int = 0
    #: Figure-3 decision tally: entries pruned at DoV == 0 (line 3),
    #: branches terminated at an internal LoD (line 8), and branches
    #: recursed into (line 10).
    pruned: int = 0
    terminated: int = 0
    recursed: int = 0
    #: True when this query changed the current cell (paid a flip).
    flipped: bool = False
    #: Subtrees degraded to their internal LoD after a V-page read
    #: failed beyond recovery (see the module docstring).
    degraded: int = 0
    #: The plan this answer was remembered as or recalled from (``None``:
    #: no plan); what it says, the fields above say too.
    plan: Optional[PlanAnswer] = field(default=None, compare=False,
                                       repr=False)

    @property
    def total_polygons(self) -> int:
        if self.plan is not None:
            return self.plan.total_polygons
        return (sum(o.polygons for o in self.objects)
                + sum(i.polygons for i in self.internals))

    @property
    def total_model_bytes(self) -> int:
        return (sum(o.bytes for o in self.objects)
                + sum(i.bytes for i in self.internals))

    @property
    def num_results(self) -> int:
        return len(self.objects) + len(self.internals)

    def object_ids(self) -> List[int]:
        return sorted(o.object_id for o in self.objects)

    def covered_object_ids(self) -> List[int]:
        """All object ids represented in the answer — directly or through
        an internal LoD."""
        ids = {o.object_id for o in self.objects}
        for internal in self.internals:
            ids.update(internal.covered_objects)
        return sorted(ids)


class HDoVSearch:
    """Point-visibility queries over a built environment.

    Parameters
    ----------
    env:
        The built environment.
    scheme:
        Which storage scheme to search through (a name from
        ``env.schemes``); default resolves only when one scheme is built.
    fetch_models:
        When False the heavy-weight model fetches are skipped (the
        scalability experiment of Figure 9 "excludes the cost to retrieve
        the objects").
    """

    def __init__(self, env: HDoVEnvironment,
                 scheme: Optional[str] = None, *,
                 fetch_models: bool = True,
                 use_nvo_heuristic: bool = True) -> None:
        self.env = env
        self._scheme: StorageScheme = env.scheme(scheme)
        self.fetch_models = fetch_models
        #: The eq.-4 condition can be disabled for the ablation bench.
        self.use_nvo_heuristic = use_nvo_heuristic
        self._log_m = math.log(env.tree.max_entries)
        #: log_M(s) for the heuristic, from the internal-LoD ratio.
        self._log_m_s = math.log(DEFAULT_LOD_RATIO) / self._log_m
        #: node offset -> level, from the in-memory tree (view-invariant
        #: metadata, resident like the paper's NVO bookkeeping).
        self._levels = {n.node_offset: n.level
                        for n in env.tree.iter_nodes_dfs()}
        registry = get_registry()
        scheme_name = self._scheme.name
        self._m_queries = registry.counter(names.SEARCH_QUERIES,
                                           scheme=scheme_name)
        self._m_nodes = registry.counter(names.SEARCH_NODES_READ,
                                         scheme=scheme_name)
        self._m_vpages = registry.counter(names.SEARCH_VPAGES_READ,
                                          scheme=scheme_name)
        self._m_pruned = registry.counter(names.SEARCH_PRUNED,
                                          scheme=scheme_name)
        self._m_terminated = registry.counter(names.SEARCH_TERMINATED,
                                              scheme=scheme_name)
        self._m_recursed = registry.counter(names.SEARCH_RECURSED,
                                            scheme=scheme_name)
        self._m_results = registry.histogram(names.SEARCH_RESULTS,
                                             scheme=scheme_name)
        #: Created by the first replay: runs without one keep their keys.
        self._m_replays: Optional[Counter] = None

    @property
    def scheme(self) -> StorageScheme:
        return self._scheme

    # -- public API -----------------------------------------------------------

    def query_point(self, point: PointLike, eta: float) -> SearchResult:
        """Visibility query at a viewpoint; resolves the cell and runs
        :meth:`query_cell`."""
        return self.query_cell(self.env.grid.cell_of_point(point), eta)

    def query_cell(self, cell_id: int, eta: float) -> SearchResult:
        """Visibility query for a cell id."""
        if not eta >= 0.0:                      # NaN is refused too
            raise HDoVError(f"eta must be >= 0, got {eta}")
        with span("search", cell=cell_id, eta=eta,
                  scheme=self._scheme.name) as sp:
            flipped = self._scheme.current_cell != cell_id
            result = SearchResult(cell_id=cell_id, eta=eta, flipped=flipped)
            try:
                with span("flip_to_cell", cell=cell_id):
                    self._scheme.flip_to_cell(cell_id)
            except _DEGRADABLE:
                # The cell's V-page index is unreadable: no per-node DoV
                # at all.  Degrade the *whole* query to the root's
                # internal LoD — complete, view-invariant, coarse.  The
                # scheme keeps its previous cell state, so the next
                # flip retries from scratch.
                self._degrade(0, result)
            else:
                pages_read = self._answer(eta, result)
                if pages_read is not None and sp is not None:
                    sp.attrs.update(replayed=True)
                    if pages_read:
                        sp.attrs.update(recall_misses=pages_read)
            if sp is not None:
                sp.attrs.update(nodes_read=result.nodes_read,
                                vpages_read=result.vpages_read,
                                results=result.num_results)
        self._m_queries.inc()
        self._m_nodes.inc(result.nodes_read)
        self._m_vpages.inc(result.vpages_read)
        self._m_pruned.inc(result.pruned)
        self._m_terminated.inc(result.terminated)
        self._m_recursed.inc(result.recursed)
        self._m_results.observe(result.num_results)
        return result

    def query_cell_degraded(self, cell_id: int, eta: float) -> SearchResult:
        """Answer a query wholly from the root's internal LoD.

        The serving scheduler's overload path (PR 5): when a session
        misses its frame budget, the service sheds load by reusing the
        PR-3 degradation ladder *proactively* — no flip, no node reads,
        no V-page reads, just the view-invariant root LoD.  The answer
        is complete but coarse, and ``result.degraded`` records it so
        per-session reports can count overload-degraded frames.
        """
        if not eta >= 0.0:
            raise HDoVError(f"eta must be >= 0, got {eta}")
        result = SearchResult(cell_id=cell_id, eta=eta, flipped=False)
        self._degrade(0, result)
        self._m_queries.inc()
        self._m_results.observe(result.num_results)
        return result

    # -- figure 3 -------------------------------------------------------------

    def _answer(self, eta: float, result: SearchResult) -> Optional[int]:
        """Fill ``result`` for the current cell.  ``None`` if Figure 3
        ran; else the answer came from a plan, and this is how many of
        its pages the recall read.

        With tree and V-pages behind one pool and a scheme that can name
        the page of each V-page read, the answer is a function of the
        cell, the query and the two files, which do not change while the
        pool fronts them: the pool keeps it (``BufferPool.remember``,
        DESIGN.md §10) until it is cleared, and hands it to any session
        over the same files with the query's page reads re-issued in
        place of the traversal.  Model fetches are not pool reads, so a
        fetching search never plans; a degraded answer is never
        remembered.
        """
        store, scheme = self.env.node_store, self._scheme
        pool = scheme.page_cache
        if (pool is None or self.fetch_models
                or getattr(store, "pool", None) is not pool
                or scheme.ventries_page(0) is None):
            self._search_node(0, eta, result, None)
            return None
        tree, vpages = store.pfile, scheme.vpage_file
        token = (tree.file_id, vpages.file_id, result.cell_id, eta,
                 self.use_nvo_heuristic)
        recalled = pool.recall(token, ((tree, rtree_reader),
                                       (vpages, scheme_reader)))
        if recalled is None:
            reads: List[Tuple[int, int]] = []
            self._search_node(0, eta, result, reads)
            if not result.degraded:
                result.plan = PlanAnswer(result)
                pool.remember(token, reads, result.plan)
            return None
        plan, pages_read = recalled
        result.plan = plan
        result.objects.extend(plan.objects)
        result.internals.extend(plan.internals)
        result.nodes_read, result.vpages_read = (plan.nodes_read,
                                                 plan.vpages_read)
        result.pruned, result.terminated, result.recursed = (
            plan.pruned, plan.terminated, plan.recursed)
        if self._m_replays is None:
            self._m_replays = get_registry().counter(
                names.SEARCH_REPLAYS, scheme=scheme.name)
        self._m_replays.inc()
        return pages_read

    def _search_node(self, node_offset: int, eta: float,
                     result: SearchResult,
                     reads: Optional[List[Tuple[int, int]]]) -> None:
        """Figure 3 below one node; ``reads`` collects the pooled pages
        read, ``(file_id, page_id)`` in order, for :meth:`_answer`."""
        store, scheme = self.env.node_store, self._scheme
        node = store.read_node(node_offset)
        result.nodes_read += 1
        if reads is not None:
            reads.append((store.pfile.file_id, node.page_id))
            page = scheme.ventries_page(node_offset)
            if page is not None:        # None: invisible, nothing is read
                reads.append((scheme.vpage_file.file_id, page))
        try:
            ventries = scheme.ventries(node_offset)
        except _DEGRADABLE:
            # This node's V-page is gone for good (retries exhausted or
            # CRC mismatch).  Its subtree degrades to the node's own
            # internal LoD; sibling branches continue unaffected.
            self._degrade(node.node_offset, result)
            return
        if ventries is None:
            # No page was read, so nothing is counted: a fully-hidden
            # cell must report vpages_read == 0, not one phantom read.
            if node.node_offset == 0:
                # A fully-hidden cell: even the root has no V-page, and
                # the answer set is empty.
                return
            # For any other node the parent saw DoV > 0, so its V-page
            # must exist; reaching here means corrupted data.
            raise HDoVError(
                f"node {node.node_offset} has no V-page but was traversed")
        result.vpages_read += 1
        if len(ventries) != len(node.targets):
            raise HDoVError("V-page does not match node entry count")
        if node.is_leaf:                                   # lines 3-5
            self._retrieve_objects(node.targets, ventries, result)
            return
        for target, (dov, nvo) in zip(node.targets, ventries):
            if dov == 0.0:
                result.pruned += 1                         # line 3: prune
            elif dov <= eta and self._should_terminate(target, nvo):
                result.terminated += 1
                self._retrieve_internal(target, dov, eta, result)  # line 8
            else:
                result.recursed += 1
                self._search_node(target, eta, result, reads)      # line 10

    def _should_terminate(self, child_offset: int, nvo: int) -> bool:
        """Equation 4: ``h (1 + log_M s) < log_M NVO``.

        ``h`` is the height of the subtree under the entry: the child's
        level plus one (a leaf child's subtree spans one level of
        objects).  When the heuristic is disabled, termination is allowed
        whenever ``DoV <= eta`` (the paper's first condition alone).
        """
        if not self.use_nvo_heuristic:
            return True
        if nvo <= 0:
            return True
        level = self._levels.get(child_offset)
        if level is None:
            raise HDoVError(f"unknown node offset {child_offset}")
        height = level + 1
        lhs = height * (1.0 + self._log_m_s)
        rhs = math.log(nvo) / self._log_m
        return lhs < rhs

    # -- retrieval ------------------------------------------------------------

    def _retrieve_objects(self, object_ids: Sequence[int],
                          ventries: Sequence[VEntry],
                          result: SearchResult) -> None:
        """Figure 3 over a leaf's entries: prune (line 3) or retrieve
        (lines 4-5) each object at its eq.-6 LoD.  The retrieved objects'
        model prefixes are fetched after the pass, in entry order, with
        one :meth:`ObjectStore.fetch_prefixes` (none if nothing is
        retrieved)."""
        records = self.env.objects
        answers = result.objects
        wanted: List[Tuple[int, int]] = []
        pruned = 0
        for object_id, (dov, _nvo) in zip(object_ids, ventries):
            if dov == 0.0:
                pruned += 1
                continue                                   # line 3: prune
            record = records.get(object_id)
            if record is None:
                raise HDoVError(f"no object record for id {object_id}")
            k = leaf_lod_fraction(dov)
            polygons = record.chain.interpolated_polygons(k)
            nbytes = polygons * BYTES_PER_POLYGON
            blob_id = record.blob_id
            answers.append(RetrievedObject(object_id, dov, k, polygons,
                                           nbytes, blob_id))
            wanted.append((blob_id, nbytes))
        result.pruned += pruned
        if wanted and self.fetch_models:
            self.env.object_store.fetch_prefixes(wanted)

    def _retrieve_internal(self, node_offset: int, dov: float, eta: float,
                           result: SearchResult) -> None:
        self._append_internal(node_offset, dov,
                              internal_lod_fraction(dov, eta), result)

    def _append_internal(self, node_offset: int, dov: float, fraction: float,
                         result: SearchResult) -> None:
        """Answer a subtree with its node's internal LoD at ``fraction``."""
        record = self.env.internals.get(node_offset)
        if record is None:
            raise HDoVError(f"no internal LoD for node {node_offset}")
        polygons = record.lod.chain.interpolated_polygons(fraction)
        nbytes = polygons * BYTES_PER_POLYGON
        if self.fetch_models:
            self.env.object_store.fetch_prefix(record.blob_id, nbytes)
        covered = tuple(self.env.descendants.get(node_offset, ()))
        result.internals.append(RetrievedInternal(
            node_offset=node_offset, dov=dov, fraction=fraction,
            polygons=polygons, bytes=nbytes, covered_objects=covered,
            blob_id=record.blob_id))

    # -- degradation ----------------------------------------------------------

    def _degrade(self, node_offset: int, result: SearchResult) -> None:
        """Stand a node's full-detail internal LoD in for its subtree.

        Without the V-page there is no DoV to blend by, so the fallback
        is conservative: fraction 1.0 (the finest internal LoD) and a
        recorded DoV of 0.0 — visibly distinct from any genuine eq.-5
        retrieval, whose DoV is positive.
        """
        self._append_internal(node_offset, 0.0, 1.0, result)
        result.degraded += 1
