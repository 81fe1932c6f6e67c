"""Reproduction of "HDoV-tree: The Structure, The Storage, The Speed"
(Shou, Huang, Tan — ICDE 2003).

Public API overview
-------------------

Scene construction::

    from repro import CityParams, generate_city, CellGrid

Preprocessing (the paper's Section 5.1 pipeline)::

    from repro import HDoVConfig, build_environment

Queries (Figure 3's traversal, the delta search, baselines)::

    from repro import HDoVSearch, DeltaSearch
    from repro.baselines import NaiveCellList, ReviewSystem

Walkthroughs and metrics::

    from repro.walkthrough import (VisualSystem, ReviewWalkthrough,
                                   make_session, frame_time_stats)

Experiments (one driver per paper table/figure) live in
:mod:`repro.experiments`.
"""

from repro.constants import ETA_GRID, ETA_RANGE, MAXDOV
from repro.core import (DeltaSearch, HDoVConfig, HDoVEnvironment, HDoVSearch,
                        SearchResult, build_environment)
from repro.geometry import AABB, TriangleMesh
from repro.scene import CityParams, Scene, SceneObject, generate_city
from repro.visibility import CellGrid, RayCastDoVEstimator, VisibilityTable

__version__ = "1.0.0"

__all__ = [
    "AABB",
    "CellGrid",
    "CityParams",
    "DeltaSearch",
    "ETA_GRID",
    "ETA_RANGE",
    "HDoVConfig",
    "HDoVEnvironment",
    "HDoVSearch",
    "MAXDOV",
    "RayCastDoVEstimator",
    "Scene",
    "SceneObject",
    "SearchResult",
    "TriangleMesh",
    "VisibilityTable",
    "build_environment",
    "generate_city",
    "__version__",
]
