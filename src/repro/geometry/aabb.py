"""Axis-aligned bounding boxes (the paper's MBRs).

The HDoV-tree stores an MBR in every entry; the REVIEW baseline issues
window queries with AABBs.  This module is the single AABB implementation
used everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import as_vec3


@dataclass(frozen=True)
class AABB:
    """A closed axis-aligned box ``[lo, hi]`` in 3-space.

    ``lo`` and ``hi`` are float64 ``(3,)`` arrays with ``lo <= hi``
    component-wise.  Instances are immutable and hashable by value.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = as_vec3(self.lo)
        hi = as_vec3(self.hi)
        if np.any(lo > hi):
            raise GeometryError(f"AABB lo {lo} exceeds hi {hi}")
        # Bypass frozen-ness once to store canonical arrays.
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_points(cls, points) -> "AABB":
        """Smallest AABB containing every row of ``points`` (shape (n, 3))."""
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
            raise GeometryError(f"expected non-empty (n, 3) points, got shape {arr.shape}")
        return cls(arr.min(axis=0), arr.max(axis=0))

    @classmethod
    def from_center_extent(cls, center, extent) -> "AABB":
        """AABB centered at ``center`` with full side lengths ``extent``."""
        c = as_vec3(center)
        e = as_vec3(extent)
        if np.any(e < 0):
            raise GeometryError(f"negative extent {e}")
        return cls(c - e / 2.0, c + e / 2.0)

    # -- basic properties --------------------------------------------------

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def extent(self) -> np.ndarray:
        """Full side lengths along each axis."""
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extent))

    # -- predicates ---------------------------------------------------------

    def contains_point(self, point) -> bool:
        p = as_vec3(point)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def contains(self, other: "AABB") -> bool:
        """True if ``other`` lies entirely inside ``self``."""
        return bool(np.all(other.lo >= self.lo) and np.all(other.hi <= self.hi))

    def intersects(self, other: "AABB") -> bool:
        """True if the closed boxes share at least one point."""
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    # -- combination ---------------------------------------------------------

    def inflated(self, margin: float) -> "AABB":
        """A copy grown by ``margin`` on every side (may be negative only
        down to a degenerate box)."""
        lo = self.lo - margin
        hi = self.hi + margin
        if np.any(lo > hi):
            raise GeometryError(f"inflation by {margin} inverts the box")
        return AABB(lo, hi)

    # -- metrics --------------------------------------------------------------

    def min_distance_to_point(self, point) -> float:
        """Distance from ``point`` to the nearest point of the box (0 if inside)."""
        p = as_vec3(point)
        delta = np.maximum(np.maximum(self.lo - p, 0.0), p - self.hi)
        return float(np.linalg.norm(delta))

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AABB):
            return NotImplemented
        return bool(np.array_equal(self.lo, other.lo)
                    and np.array_equal(self.hi, other.hi))

    def __hash__(self) -> int:
        return hash((tuple(self.lo), tuple(self.hi)))

    def __repr__(self) -> str:
        return f"AABB(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


def union_aabbs(boxes: Iterable[AABB]) -> AABB:
    """Union of a non-empty iterable of AABBs."""
    boxes = list(boxes)
    if not boxes:
        raise GeometryError("cannot union zero AABBs")
    lo = np.min([b.lo for b in boxes], axis=0)
    hi = np.max([b.hi for b in boxes], axis=0)
    return AABB(lo, hi)


def pack_aabbs(boxes: Sequence[AABB]) -> np.ndarray:
    """Pack AABBs into an ``(n, 6)`` array ``[lox, loy, loz, hix, hiy, hiz]``.

    Vectorised visibility code consumes this layout.
    """
    if len(boxes) == 0:
        return np.empty((0, 6), dtype=np.float64)
    return np.array([np.concatenate([b.lo, b.hi]) for b in boxes],
                    dtype=np.float64)
