"""Degree-of-visibility data model.

DoV of a point set X from viewpoint p is the solid angle of the visible
(un-occluded) part of X divided by the full sphere (paper, Section 3.1);
for a viewing cell it is the conservative maximum over the cell's points
(eq. 2).  This module holds the per-cell results of the estimator and the
aggregation helpers used when instantiating HDoV-tree nodes:

* DoV of a group = DoV computed as if the aggregation were one point set
  (occlusion *within* the group does not count against it); the paper's
  attribute 2 says an internal entry's DoV equals the sum of the DoVs in
  the node it points to, which is exact for disjoint projections — the
  tree builder therefore *sums child DoVs upward*.
* NVO (number of visible objects) of a group = count of descendant
  objects with DoV > 0.

A table is a deterministic function of scene, grid and estimator
settings; :func:`visibility_digest` fingerprints it bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import VisibilityError


@dataclass
class CellVisibility:
    """Visibility data of one viewing cell: object id -> DoV in (0, 1].

    Objects absent from the mapping have DoV 0 (hidden) and must not be
    retrieved (paper: "An object with DoV value of 0 is unimportant ...
    and therefore should not be accessed").
    """

    cell_id: int
    dov: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for oid, value in self.dov.items():
            self._check(oid, value)

    @staticmethod
    def _check(object_id: int, value: float) -> None:
        if not 0.0 < value <= 1.0:
            raise VisibilityError(
                f"stored DoV must be in (0, 1], got {value} for object "
                f"{object_id}")

    def set(self, object_id: int, value: float) -> None:
        """Record a DoV; zero values are dropped (hidden objects are
        simply absent)."""
        if value == 0.0:
            self.dov.pop(object_id, None)
            return
        self._check(object_id, value)
        self.dov[object_id] = value

    def get(self, object_id: int) -> float:
        return self.dov.get(object_id, 0.0)

    def visible_ids(self) -> List[int]:
        return sorted(self.dov)

    @property
    def num_visible(self) -> int:
        return len(self.dov)

    def total_dov(self) -> float:
        return sum(self.dov.values())

    def __repr__(self) -> str:
        return (f"CellVisibility(cell={self.cell_id}, "
                f"visible={self.num_visible})")


class VisibilityTable:
    """All cells' visibility data, the product of precomputation.

    This is the in-memory form; the storage schemes of
    :mod:`repro.core.schemes` lay it out on disk.
    """

    def __init__(self, num_cells: int) -> None:
        if num_cells < 1:
            raise VisibilityError(f"num_cells must be >= 1, got {num_cells}")
        self.num_cells = num_cells
        self._cells: Dict[int, CellVisibility] = {}

    def put(self, cell: CellVisibility) -> None:
        if not 0 <= cell.cell_id < self.num_cells:
            raise VisibilityError(f"cell id {cell.cell_id} out of range")
        self._cells[cell.cell_id] = cell

    def cell(self, cell_id: int) -> CellVisibility:
        if not 0 <= cell_id < self.num_cells:
            raise VisibilityError(f"cell id {cell_id} out of range")
        return self._cells.get(cell_id) or CellVisibility(cell_id)

    def cells(self) -> Iterator[CellVisibility]:
        for cid in range(self.num_cells):
            yield self.cell(cid)

    def average_visible(self) -> float:
        """Mean N_vobj across cells (used in the storage-cost formulas)."""
        return sum(c.num_visible for c in self.cells()) / self.num_cells

    def __repr__(self) -> str:
        return (f"VisibilityTable(cells={self.num_cells}, "
                f"avg_visible={self.average_visible():.1f})")


def _table_arrays(table: VisibilityTable
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical (cell id, object id, DoV) triple-array layout:
    cells ascending, object ids ascending within each cell."""
    cell_ids: List[int] = []
    object_ids: List[int] = []
    dovs: List[float] = []
    for cell in table.cells():
        for oid, dov in sorted(cell.dov.items()):
            cell_ids.append(cell.cell_id)
            object_ids.append(oid)
            dovs.append(dov)
    return (np.asarray(cell_ids, dtype=np.int64),
            np.asarray(object_ids, dtype=np.int64),
            np.asarray(dovs, dtype=np.float64))


def visibility_digest(table: VisibilityTable) -> str:
    """SHA-256 over the cell count and the canonical layout's bytes.

    The precompute pipeline's determinism contract — any batch size and
    any worker count produce a *bit-identical* table — is asserted by
    comparing digests.
    """
    cell_ids, object_ids, dovs = _table_arrays(table)
    digest = hashlib.sha256()
    digest.update(np.int64(table.num_cells).tobytes())
    digest.update(cell_ids.tobytes())
    digest.update(object_ids.tobytes())
    digest.update(dovs.tobytes())
    return digest.hexdigest()


def aggregate_upward(child_dovs: List[float]) -> float:
    """DoV of a parent entry from its child node's entry DoVs.

    Paper attribute 2: "The DoV value of an entry E in an internal node
    equals the summation of all the DoV values in the node that E points
    to."  Clamped to 1.0 (the projections cannot exceed the sphere).
    """
    total = sum(child_dovs)
    if total < 0.0:
        raise VisibilityError(f"negative DoV sum: {total}")
    return min(total, 1.0)
