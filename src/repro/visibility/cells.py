"""Viewpoint-space cell grid.

The paper partitions the user viewpoint space into disjoint cells and
precomputes visibility per cell (Sections 1, 3).  We use a uniform 2-D
grid at eye height over the city footprint: walkthrough viewpoints move
on the ground plane, which matches the paper's walkthrough sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import VisibilityError
from repro.geometry.aabb import AABB
from repro.geometry.vec import PointLike


@dataclass(frozen=True)
class CellGrid:
    """Uniform grid of viewing cells over a rectangular ground area.

    Cells are indexed ``cell_id = ix * cells_y + iy`` with ``ix`` along x.
    Viewpoints are at fixed ``eye_height`` above the ground.
    """

    origin: Tuple[float, float]
    cell_size: float
    cells_x: int
    cells_y: int
    eye_height: float = 1.7

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise VisibilityError(f"cell_size must be positive, got {self.cell_size}")
        if self.cells_x < 1 or self.cells_y < 1:
            raise VisibilityError("grid needs at least one cell")

    @classmethod
    def covering(cls, bounds: AABB, cell_size: float,
                 eye_height: float = 1.7) -> "CellGrid":
        """Grid covering the xy-footprint of ``bounds``."""
        extent = bounds.extent
        cells_x = max(int(np.ceil(extent[0] / cell_size)), 1)
        cells_y = max(int(np.ceil(extent[1] / cell_size)), 1)
        return cls(origin=(float(bounds.lo[0]), float(bounds.lo[1])),
                   cell_size=cell_size, cells_x=cells_x, cells_y=cells_y,
                   eye_height=eye_height)

    @property
    def num_cells(self) -> int:
        return self.cells_x * self.cells_y

    def cell_ids(self) -> Iterator[int]:
        return iter(range(self.num_cells))

    def cell_of_point(self, point: PointLike) -> int:
        """Cell id containing ``point`` (clamped to the grid edge).  A
        NaN or infinite x or y lies in no cell."""
        x, y = float(point[0]), float(point[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise VisibilityError(
                f"viewpoint x and y must be finite, got ({x}, {y})")
        ix = int((x - self.origin[0]) / self.cell_size)
        iy = int((y - self.origin[1]) / self.cell_size)
        ix = min(max(ix, 0), self.cells_x - 1)
        iy = min(max(iy, 0), self.cells_y - 1)
        return ix * self.cells_y + iy

    def cell_indices(self, cell_id: int) -> Tuple[int, int]:
        if not 0 <= cell_id < self.num_cells:
            raise VisibilityError(f"cell id {cell_id} out of range")
        return divmod(cell_id, self.cells_y)

    def cell_center(self, cell_id: int) -> np.ndarray:
        """Viewpoint at the cell's center, at eye height."""
        ix, iy = self.cell_indices(cell_id)
        return np.array([
            self.origin[0] + (ix + 0.5) * self.cell_size,
            self.origin[1] + (iy + 0.5) * self.cell_size,
            self.eye_height,
        ])

    def cell_box(self, cell_id: int) -> AABB:
        """The cell's footprint as a thin AABB at eye height."""
        ix, iy = self.cell_indices(cell_id)
        lo = np.array([self.origin[0] + ix * self.cell_size,
                       self.origin[1] + iy * self.cell_size,
                       self.eye_height])
        hi = lo + np.array([self.cell_size, self.cell_size, 0.0])
        return AABB(lo, hi)

    def sample_viewpoints(self, cell_id: int, samples: int = 1,
                          seed: int = 0) -> List[np.ndarray]:
        """Viewpoints for the conservative region DoV (eq. 2): the cell
        center plus ``samples - 1`` deterministic jittered points."""
        if samples < 1:
            raise VisibilityError(f"samples must be >= 1, got {samples}")
        points = [self.cell_center(cell_id)]
        if samples > 1:
            rng = np.random.default_rng(seed * 1_000_003 + cell_id)
            box = self.cell_box(cell_id)
            for _ in range(samples - 1):
                xy = rng.uniform(box.lo[:2], box.hi[:2])
                points.append(np.array([xy[0], xy[1], self.eye_height]))
        return points

    def neighbors(self, cell_id: int) -> List[int]:
        """4-neighborhood (the packed codec's delta-base candidates)."""
        ix, iy = self.cell_indices(cell_id)
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = ix + dx, iy + dy
            if 0 <= nx < self.cells_x and 0 <= ny < self.cells_y:
                out.append(nx * self.cells_y + ny)
        return out
