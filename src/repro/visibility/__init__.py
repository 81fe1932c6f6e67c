"""Visibility substrate: viewing cells, DoV computation, precomputation.

Replaces the paper's hardware-accelerated DoV algorithm [Shou, PhD 2002]
with a software spherical ray caster, and implements the per-cell
preprocessing pipeline that instantiates the HDoV-tree's view-variant
data.
"""

from repro.visibility.cells import CellGrid
from repro.visibility.dov import (CellVisibility, VisibilityTable,
                                  visibility_digest)
from repro.visibility.raycast import RayCastDoVEstimator
from repro.visibility.precompute import precompute_visibility

__all__ = ["CellGrid", "CellVisibility", "VisibilityTable",
           "RayCastDoVEstimator", "precompute_visibility",
           "visibility_digest"]
