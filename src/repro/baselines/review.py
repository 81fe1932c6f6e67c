"""The REVIEW baseline — R-tree window-query walkthrough (paper [12]).

REVIEW indexes objects with an R-tree and, per frame, issues a spatial
window query (a box of configurable side length around the viewpoint)
rather than a visibility query.  Its two problems, which the paper's
Section 2 and experiments call out, emerge naturally here:

* objects *outside* the query box are missed even when visible
  ("shortsightedness", Figure 11);
* objects *inside* the box are fetched even when completely hidden,
  wasting I/O and memory.

REVIEW's optimizations are reproduced: the *complement search* (only
newly-overlapping objects are fetched on viewpoint movement) and the
distance-based semantic cache replacement.  LoD selection is the static
distance policy the paper's introduction describes (nearer objects in
finer detail), since REVIEW has no DoV data to drive eq. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import BYTES_PER_POLYGON
from repro.core.delta import ResidentModels
from repro.core.hdov_tree import HDoVEnvironment, ObjectRecord
from repro.errors import WalkthroughError
from repro.geometry.aabb import AABB
from repro.geometry.vec import as_vec3


@dataclass(frozen=True)
class DistanceLODPolicy:
    """Static distance-based LoD selection.

    ``thresholds[i]`` is the maximum distance at which chain level ``i``
    (finest = 0) is used; beyond the last threshold the coarsest level is
    used.  This is the "ad-hoc and static" decision the paper's
    introduction criticises.
    """

    thresholds: Sequence[float] = (100.0, 250.0, 500.0)

    def fraction_for_distance(self, distance: float) -> float:
        """Blend fraction (1 = finest) for an object at ``distance``."""
        if distance < 0:
            raise WalkthroughError(f"negative distance: {distance}")
        num_levels = len(self.thresholds) + 1
        level = num_levels - 1
        for i, threshold in enumerate(self.thresholds):
            if distance <= threshold:
                level = i
                break
        if num_levels == 1:
            return 1.0
        return 1.0 - level / (num_levels - 1)


@dataclass
class WindowQueryResult:
    """Answer set and accounting of one window query."""

    boxes: List[AABB]
    object_ids: List[int] = field(default_factory=list)
    #: ids fetched this query (not served from the resident set).
    fetched_ids: List[int] = field(default_factory=list)
    nodes_read: int = 0
    total_polygons: int = 0
    total_model_bytes: int = 0

    @property
    def num_results(self) -> int:
        return len(self.object_ids)


class WindowQuerySystem:
    """R-tree window queries with complement search — what REVIEW and
    the LoD-R-tree share.

    A query visits the shared R-tree once per box, charging one node
    page per visit, and fetches the answer through one
    :class:`~repro.core.delta.ResidentModels` — only what is not already
    held at sufficient detail — after which exactly the answer stays
    held.  A subclass states its boxes, its LoD choice and its re-query
    rule: ``query(position, direction)``, ``needs_requery(position,
    direction)`` and ``lod_fraction_at(distance)``.

    ``fetch_models=False`` keeps the bookkeeping without the model I/O
    (Figure 11 scores answer sets only).
    """

    def __init__(self, env: HDoVEnvironment, *,
                 fetch_models: bool = True) -> None:
        self.env = env
        self.resident = ResidentModels(
            env.models_table() if fetch_models else None)
        self._last_result: Optional[WindowQueryResult] = None
        self.queries_issued = 0

    def frame(self, position, direction=None
              ) -> Tuple[WindowQueryResult, bool]:
        """Per-frame entry point: ``(result, queried)``.  Between
        re-queries the last result is returned and no I/O is charged."""
        if self.needs_requery(position, direction):
            return self.query(position, direction), True
        return self._last_result, False

    def _window_query(self, boxes: List[AABB],
                      fraction_of: Callable[[ObjectRecord, int], float]
                      ) -> WindowQueryResult:
        """Answer ``boxes``; ``fraction_of(record, box_index)`` is the
        LoD of an object first found in box ``box_index``."""
        result = WindowQueryResult(boxes=boxes)
        self.queries_issued += 1

        def on_node(node) -> None:
            # Charge the node page read through the persisted store.
            if node.node_offset is not None:
                self.env.node_store.read_node(node.node_offset)
            result.nodes_read += 1

        box_of: Dict[int, int] = {}
        for index, box in enumerate(boxes):
            for oid in self.env.tree.window_query(box, on_node=on_node):
                box_of.setdefault(oid, index)
        result.object_ids = sorted(box_of)

        # Fetch in blob-layout order so the baselines ride the disk
        # read-ahead exactly like VISUAL does (REVIEW's own prefetch
        # optimization [12]).
        objects, store = self.env.objects, self.env.object_store
        for oid in sorted(box_of, key=lambda o: store.ref(
                objects[o].blob_id).first_page):
            record = objects[oid]
            fraction = fraction_of(record, box_of[oid])
            polygons = record.chain.interpolated_polygons(fraction)
            nbytes = polygons * BYTES_PER_POLYGON
            result.total_polygons += polygons
            result.total_model_bytes += nbytes
            if self.resident.want(oid, record.blob_id, fraction, nbytes):
                result.fetched_ids.append(oid)
        self.resident.keep_only(box_of)
        self._last_result = result
        return result

    # -- accounting --------------------------------------------------------

    @property
    def fetches(self) -> int:
        return self.resident.fetches

    @property
    def resident_bytes(self) -> int:
        return self.resident.bytes

    @property
    def resident_count(self) -> int:
        return len(self.resident)

    def clear_cache(self) -> None:
        """Forget the held models and the last query."""
        self.resident.clear()
        self._last_result = None


class ReviewSystem(WindowQuerySystem):
    """REVIEW: one cubic box around the viewpoint, whatever the view
    direction; distance-based LoD; a farthest-first cache budget.

    Parameters
    ----------
    env:
        Shared environment (tree, node store, object store, stats).
    box_size:
        Side length of the cubic query box centered at the viewpoint
        (the paper evaluates 200 m and 400 m).
    cache_budget_bytes:
        Semantic cache capacity.  ``None`` means unbounded (the paper's
        runs keep everything until it leaves the box).
    """

    lod_policy = DistanceLODPolicy()

    def __init__(self, env: HDoVEnvironment, *, box_size: float = 400.0,
                 cache_budget_bytes: Optional[int] = None,
                 fetch_models: bool = True,
                 requery_fraction: float = 0.25) -> None:
        if box_size <= 0:
            raise WalkthroughError(f"box_size must be positive, got {box_size}")
        if not 0.0 <= requery_fraction <= 1.0:
            raise WalkthroughError(
                f"requery_fraction must be in [0, 1], got {requery_fraction}")
        super().__init__(env, fetch_models=fetch_models)
        self.box_size = box_size
        self.cache_budget_bytes = cache_budget_bytes
        #: Fraction of the box half-size the viewpoint may drift from the
        #: last query center before a new window query is issued.  REVIEW
        #: oversizes its query boxes relative to the frustum exactly so
        #: that most frames need no database query — the occasional
        #: re-query is what produces the tall frame-time spikes of
        #: Figure 10(a).
        self.requery_fraction = requery_fraction
        self._last_query_center = np.zeros(3)   # of ``_last_result``

    def lod_fraction_at(self, distance: float) -> float:
        return self.lod_policy.fraction_for_distance(distance)

    def query_box_at(self, viewpoint) -> AABB:
        p = as_vec3(viewpoint)
        half = self.box_size / 2.0
        return AABB(p - half, p + half)

    def needs_requery(self, viewpoint, direction=None) -> bool:
        """True when the viewpoint has drifted far enough from the last
        query center that the cached result no longer covers the view."""
        if self._last_result is None:
            return True
        drift = float(np.linalg.norm(as_vec3(viewpoint)
                                     - self._last_query_center))
        return drift > self.requery_fraction * (self.box_size / 2.0)

    def query(self, viewpoint, direction=None) -> WindowQueryResult:
        """One window query with complement search against the cache."""
        viewpoint = as_vec3(viewpoint)
        self._last_query_center = viewpoint.copy()

        def distance_to(record: ObjectRecord) -> float:
            return record.chain.finest.aabb().min_distance_to_point(viewpoint)

        result = self._window_query(
            [self.query_box_at(viewpoint)],
            lambda record, _box: self.lod_fraction_at(distance_to(record)))

        # Semantic replacement: evict the objects farthest from the
        # viewer (ties in fetch order) until the cache fits the budget.
        budget = self.cache_budget_bytes
        if budget is not None and self.resident.bytes > budget:
            for oid in sorted(
                    self.resident, reverse=True,
                    key=lambda o: distance_to(self.env.objects[o])):
                if self.resident.bytes <= budget:
                    break
                self.resident.drop(oid)
        return result

    def __repr__(self) -> str:
        return (f"ReviewSystem(box={self.box_size}, "
                f"resident={self.resident_count}, fetches={self.fetches})")
