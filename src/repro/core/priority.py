"""Frustum-prioritized traversal — the paper's future work, implemented.

Section 3.2 (third strength) and the conclusion sketch it: "the spatial
structure being used facilitates the design of a traversal algorithm
that prioritizes the nodes to be searched ... regions that are closer to
the current view frustum can be traversed first, while regions that are
outside the view frustum can be delayed.  This can further improve the
response time significantly.  ...  In our current work, we have not
exploited the MBR information in the HDoV-tree."

:class:`PrioritizedSearch` exploits exactly that MBR information: the
answer set is *identical* to :class:`~repro.core.search.HDoVSearch`'s
(same cell, same eta), but retrieval is split into two phases:

1. **in-frustum phase** — traverse only branches whose MBR intersects
   the camera frustum and fetch their models; once this phase is done
   the renderer already has everything on screen;
2. **out-of-frustum phase** — complete the remaining branches (the
   paper keeps them in the answer so a head turn needs no new query).

The measured benefit is *time-to-renderable*: the simulated cost of
phase 1 alone, which is what the user perceives as response time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.hdov_tree import HDoVEnvironment
from repro.core.search import HDoVSearch, SearchResult
from repro.errors import HDoVError
from repro.geometry.frustum import Camera, Frustum
from repro.rtree.persist import PersistedNode


@dataclass
class PrioritizedResult:
    """A two-phase answer: the in-frustum part first."""

    in_frustum: SearchResult
    completed: SearchResult
    #: Simulated ms spent on phase 1 (the perceived response time).
    first_phase_ms: float
    #: Simulated ms for the whole query (both phases).
    total_ms: float

    @property
    def speedup(self) -> float:
        """Total time over time-to-renderable."""
        if self.first_phase_ms <= 0:
            return 1.0
        return self.total_ms / self.first_phase_ms


class PrioritizedSearch:
    """Two-phase, frustum-first HDoV traversal.

    Wraps two plain searchers that share the environment's scheme: one
    restricted to frustum-intersecting branches, one for the remainder.
    """

    def __init__(self, env: HDoVEnvironment,
                 scheme: Optional[str] = None, *,
                 fetch_models: bool = True) -> None:
        self.env = env
        self._search = HDoVSearch(env, scheme, fetch_models=fetch_models)

    def query(self, camera: Camera, eta: float) -> PrioritizedResult:
        """Visibility query at ``camera.position`` with frustum priority."""
        cell_id = self.env.grid.cell_of_point(camera.position)
        frustum = camera.frustum()

        start_snap = self.env.snapshot()
        in_view = self._restricted_query(cell_id, eta, frustum,
                                         inside=True)
        light, heavy = self.env.delta(start_snap)
        first_phase_ms = light.simulated_ms + heavy.simulated_ms

        outside = self._restricted_query(cell_id, eta, frustum,
                                         inside=False)
        light, heavy = self.env.delta(start_snap)
        total_ms = light.simulated_ms + heavy.simulated_ms

        completed = SearchResult(cell_id=cell_id, eta=eta)
        completed.objects = in_view.objects + outside.objects
        completed.internals = in_view.internals + outside.internals
        completed.nodes_read = in_view.nodes_read + outside.nodes_read
        completed.vpages_read = in_view.vpages_read + outside.vpages_read
        return PrioritizedResult(in_frustum=in_view, completed=completed,
                                 first_phase_ms=first_phase_ms,
                                 total_ms=total_ms)

    # -- internals -----------------------------------------------------------

    def _restricted_query(self, cell_id: int, eta: float,
                          frustum: Frustum, *, inside: bool) -> SearchResult:
        """One phase of the traversal.

        ``inside=True`` descends only branches intersecting the frustum;
        ``inside=False`` collects everything the first phase skipped.
        A branch fully outside the frustum is skipped *as a whole* in
        phase 1 and re-entered from the top in phase 2; branches that
        straddle the frustum are partially handled in each phase at
        entry granularity, so the union is exactly the full answer.
        """
        if eta < 0.0:
            raise HDoVError(f"eta must be >= 0, got {eta}")
        self._search.scheme.flip_to_cell(cell_id)
        result = SearchResult(cell_id=cell_id, eta=eta)
        root = self.env.node_store.read_node(0)
        result.nodes_read += 1
        self._walk(root, eta, frustum, inside, result)
        return result

    def _walk(self, node: PersistedNode, eta: float, frustum: Frustum,
              inside: bool, result: SearchResult) -> None:
        """One phase over one node.

        Partition rules (which make phase-1 ∪ phase-2 exactly the plain
        traversal's answer, with no duplicates):

        * phase 1 (``inside=True``): entries whose MBR misses the
          frustum are skipped entirely; the rest behave normally.
        * phase 2 (``inside=False``): entries whose MBR misses the
          frustum behave normally (they were skipped in phase 1).
          Frustum-intersecting entries were *started* in phase 1: their
          leaf retrievals and internal-LoD terminations already
          happened, so those are skipped — but recursive internal
          entries are descended again, because their subtrees may hold
          out-of-frustum children that phase 1 filtered out.
        """
        ventries = self._search.scheme.ventries(node.node_offset)
        if ventries is None:
            if node.node_offset == 0:
                return              # fully-hidden cell: empty answer,
                                    # and no V-page was actually read
            raise HDoVError(
                f"node {node.node_offset} has no V-page but was traversed")
        result.vpages_read += 1
        for index, (target, (dov, nvo)) in enumerate(zip(node.targets,
                                                         ventries)):
            if dov == 0.0:
                continue
            in_view = frustum.intersects_aabb(node.mbr(index))
            if inside and not in_view:
                continue                      # phase 2's work
            terminates = (not node.is_leaf and dov <= eta
                          and self._search._should_terminate(target, nvo))
            if not inside and in_view:
                # Handled by phase 1 — except straddling subtrees, which
                # must be descended for their out-of-frustum children.
                if node.is_leaf or terminates:
                    continue
                child = self.env.node_store.read_node(target)
                result.nodes_read += 1
                self._walk(child, eta, frustum, inside, result)
                continue
            if node.is_leaf:
                self._search._retrieve_object(target, dov, result)
            elif terminates:
                self._search._retrieve_internal(target, dov, eta, result)
            else:
                child = self.env.node_store.read_node(target)
                result.nodes_read += 1
                self._walk(child, eta, frustum, inside, result)
