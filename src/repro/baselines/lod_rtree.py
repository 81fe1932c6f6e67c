"""The LoD-R-tree baseline (Kofler, Gervautz, Gruber [8]).

Section 2 of the paper describes it: an R-tree combined with
multi-resolution data where "the search method converts the
viewing-frustum into a few rectangular query boxes (instead of one
single large query box that bounds the view frustum), and retrieves
only objects within these boxes.  Thus, the structure leads to high
frame rates as long as the user stays within the viewing-frustum.
However, its performance degenerates significantly as the user view
changes."

We reproduce that behaviour: the frustum is decomposed into depth slabs
whose bounding boxes shrink toward the near plane (tight fit, little
waste), objects are fetched at an LoD matched to their slab, and —
crucially — the cached result is keyed to the *view direction*: a turn
beyond ``requery_angle_deg`` invalidates everything, which is exactly
the degeneration the HDoV paper calls out (the turning session makes it
re-fetch constantly, where REVIEW's direction-free box does not).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.baselines.review import WindowQueryResult, WindowQuerySystem
from repro.core.hdov_tree import HDoVEnvironment
from repro.errors import WalkthroughError
from repro.geometry.aabb import AABB
from repro.geometry.vec import as_vec3, normalize


#: Field of view the frustum slabs are cut for, and how far the viewer
#: may move before the slabs are re-queried.
FOV_DEG = 70.0
REQUERY_DISTANCE = 25.0


class LodRTreeSystem(WindowQuerySystem):
    """Frustum-slab window queries over the shared environment's R-tree.

    Parameters
    ----------
    env:
        Shared environment.
    depth:
        Far limit of the query slabs (how far the system "sees").
    num_slabs:
        Frustum depth slabs; each gets its own query box and LoD: the
        nearest slab fetches the finest level, the farthest the
        coarsest.
    requery_angle_deg:
        View-direction change that invalidates the cached result (the
        view-variance weakness).
    """

    def __init__(self, env: HDoVEnvironment, *, depth: float = 500.0,
                 num_slabs: int = 3, requery_angle_deg: float = 15.0,
                 fetch_models: bool = True) -> None:
        if depth <= 0:
            raise WalkthroughError(f"depth must be positive: {depth}")
        if num_slabs < 1:
            raise WalkthroughError(f"num_slabs must be >= 1: {num_slabs}")
        super().__init__(env, fetch_models=fetch_models)
        self.depth = depth
        self.num_slabs = num_slabs
        self.requery_angle = math.radians(requery_angle_deg)
        #: Where ``_last_result`` was queried from.
        self._last_position = self._last_direction = np.zeros(3)

    # -- frustum decomposition ---------------------------------------------

    def query_boxes(self, position, direction) -> List[AABB]:
        """Depth-slab boxes covering the view frustum."""
        position = as_vec3(position)
        forward = normalize(direction)
        half_tan = math.tan(math.radians(FOV_DEG) / 2.0)
        boxes: List[AABB] = []
        edges = np.linspace(0.0, self.depth, self.num_slabs + 1)
        # Lateral directions spanning the frustum cross-section.
        up = np.array([0.0, 0.0, 1.0])
        if abs(float(np.dot(forward, up))) > 0.99:
            up = np.array([1.0, 0.0, 0.0])
        right = normalize(np.cross(forward, up))
        true_up = normalize(np.cross(right, forward))
        for near, far in zip(edges[:-1], edges[1:]):
            corners = []
            for dist in (near, far):
                half = half_tan * max(dist, 1e-6)
                center = position + forward * dist
                for su in (-1, 1):
                    for sv in (-1, 1):
                        corners.append(center + right * (su * half)
                                       + true_up * (sv * half))
            boxes.append(AABB.from_points(np.array(corners)))
        return boxes

    def _slab_fraction(self, slab_index: int) -> float:
        """LoD blend for a slab: nearest slab finest (1), farthest
        coarsest (0)."""
        if self.num_slabs == 1:
            return 1.0
        return 1.0 - slab_index / (self.num_slabs - 1)

    def lod_fraction_at(self, distance: float) -> float:
        """LoD fraction of the slab an MBR at ``distance`` falls in
        (nearest-slab assignment by distance bucketing)."""
        slab_width = self.depth / self.num_slabs
        return self._slab_fraction(min(int(distance / max(slab_width, 1e-9)),
                                       self.num_slabs - 1))

    # -- queries --------------------------------------------------------------

    def needs_requery(self, position, direction) -> bool:
        if self._last_result is None:
            return True
        moved = float(np.linalg.norm(as_vec3(position)
                                     - self._last_position))
        if moved > REQUERY_DISTANCE:
            return True
        cos_angle = float(np.clip(np.dot(normalize(direction),
                                         self._last_direction), -1.0, 1.0))
        return math.acos(cos_angle) > self.requery_angle

    def query(self, position, direction) -> WindowQueryResult:
        """Issue the slab queries and fetch new objects, each at the LoD
        of the finest slab that contains it."""
        position = as_vec3(position)
        forward = normalize(direction)
        self._last_position = position.copy()
        self._last_direction = forward.copy()
        return self._window_query(
            self.query_boxes(position, forward),
            lambda _record, slab: self._slab_fraction(slab))

    def __repr__(self) -> str:
        return (f"LodRTreeSystem(depth={self.depth}, "
                f"slabs={self.num_slabs}, queries={self.queries_issued})")
