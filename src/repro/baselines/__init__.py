"""Comparator systems the paper evaluates against.

* :mod:`repro.baselines.naive` — the (cell, list-of-objects) method:
  per-cell visible-object lists, object LoDs only.
* :mod:`repro.baselines.review` — ``WindowQuerySystem``, the R-tree
  window-query walkthrough with complement search, and the REVIEW
  system (VLDB'01) on it: one box around the viewpoint, a
  distance-based cache.
* :mod:`repro.baselines.lod_rtree` — the LoD-R-tree [8] on the same
  base: frustum-slab query boxes with static per-slab LoDs; fast inside
  the frustum, degenerates on view changes.
"""

from repro.baselines.naive import NaiveCellList, NaiveResult
from repro.baselines.review import (ReviewSystem, WindowQueryResult,
                                    WindowQuerySystem)
from repro.baselines.lod_rtree import LodRTreeSystem

__all__ = ["NaiveCellList", "NaiveResult", "WindowQuerySystem",
           "WindowQueryResult", "ReviewSystem", "LodRTreeSystem"]
