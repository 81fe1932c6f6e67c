"""Ray-cast DoV estimator.

The software equivalent of the paper's hardware-accelerated DoV
computation: an item-buffer rendering over the whole sphere of directions.
For a viewpoint, we cast one ray per cube-map texel against every object
AABB; the nearest hit "owns" the texel, and an object's DoV is the sum of
its texels' solid angles divided by ``4 * pi``.  Occlusion is therefore
handled exactly as in an item buffer: an object hidden behind a nearer
box receives no texels and gets DoV 0.

Using AABBs rather than triangle meshes as occluders is the conservative
choice for the *occludee* (an object's box is at least as big as the
object) and slightly aggressive for the *occluder*; for the paper's city
scenes — buildings are boxes — it is near-exact, and the estimator is
validated against analytic solid angles in the tests.

Batching: the precompute pipeline casts the same ray set from many
viewpoints, so the estimator's hot path is :meth:`dov_sums`, which
intersects a whole ``(v, 3)`` viewpoint block in one call to the shared
slab kernel (:mod:`repro.geometry.slab`) and reduces texel ownership to
per-object solid-angle sums with a single offset ``bincount``.  The
batched path is bit-identical to the one-viewpoint-at-a-time path — the
kernel performs the same per-element operations regardless of batch
shape, and the bincount accumulates each viewpoint's texels in the same
ray order the scalar path uses.  "Every object AABB" above is the
result, not the work: the kernel's octant cull skips boxes that are
provably behind the viewpoint block, which never changes an owner.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import VisibilityError
from repro.geometry.rays import cube_map_solid_angles, sphere_direction_grid
from repro.geometry.slab import group_rays_by_octant, slab_nearest
from repro.geometry.solidangle import FULL_SPHERE
from repro.geometry.vec import PointLike


class RayCastDoVEstimator:
    """Estimates per-object DoV values from viewpoints.

    Parameters
    ----------
    boxes:
        Packed object AABBs, shape ``(n, 6)``, in object-id order — entry
        ``i`` must be the box of the object whose id is ``object_ids[i]``.
    object_ids:
        Object id of each box row.  Defaults to ``0..n-1``.
    resolution:
        Cube-map face resolution; rays = ``6 * resolution**2``.  16 gives
        ~1500 rays (DoV quantum ~6.5e-4, adequate for eta >= 1e-3); 32
        gives ~6100 rays (quantum ~1.6e-4) and is the default used by the
        experiments, which sweep eta down to 5e-5 — values below the
        quantum read as "at most one texel", which is exactly the
        barely-visible regime the threshold is meant to prune.
    """

    def __init__(self, boxes: np.ndarray,
                 object_ids: Optional[Sequence[int]] = None,
                 resolution: int = 32) -> None:
        boxes = np.asarray(boxes, dtype=np.float64)
        if boxes.ndim != 2 or boxes.shape[1] != 6:
            raise VisibilityError(f"boxes must be (n, 6), got {boxes.shape}")
        self.boxes = boxes
        if object_ids is None:
            object_ids = list(range(len(boxes)))
        if len(object_ids) != len(boxes):
            raise VisibilityError("object_ids length mismatch")
        self.object_ids = np.asarray(object_ids, dtype=np.int64)
        self.resolution = resolution
        self.directions = sphere_direction_grid(resolution)
        self.solid_angles = cube_map_solid_angles(resolution)
        #: Smallest non-zero DoV the estimator can report.
        self.dov_quantum = float(self.solid_angles.min() / FULL_SPHERE)
        # Hot-path layout: rays grouped by direction-sign octant so the
        # slab kernel can pick each box's near/far bound per axis once
        # instead of per (ray, box) element; float32 halves memory traffic.
        self._lo32 = self.boxes[:, 0:3].astype(np.float32)
        self._hi32 = self.boxes[:, 3:6].astype(np.float32)
        self._dirs32 = self.directions.astype(np.float32)
        self._groups = group_rays_by_octant(self._dirs32)
        # The vectorized region reduction keys sums by box row; with
        # duplicate object ids the dict-based merge has subtly different
        # (last-row-wins) semantics, so such estimators take the
        # pointwise path.  Scenes never produce duplicates.
        self._unique_ids = len(np.unique(self.object_ids)) == len(
            self.object_ids)

    @property
    def num_rays(self) -> int:
        return len(self.directions)

    def _nearest_ids_batch(self, viewpoints: np.ndarray) -> np.ndarray:
        """Per-ray nearest box row (-1 for a miss) for a ``(v, 3)``
        viewpoint block, via the shared octant-grouped slab kernel."""
        origins = np.asarray(viewpoints, dtype=np.float64)
        ids, _ts = slab_nearest(origins.astype(np.float32), self._dirs32,
                                self._lo32, self._hi32,
                                groups=self._groups)
        return ids

    def _nearest_ids(self, viewpoint: np.ndarray) -> np.ndarray:
        """Single-viewpoint view of :meth:`_nearest_ids_batch`."""
        return self._nearest_ids_batch(
            np.asarray(viewpoint, dtype=np.float64)[None, :])[0]

    def dov_sums(self, viewpoints: np.ndarray) -> np.ndarray:
        """Per-viewpoint, per-box-row solid-angle sums, shape ``(v, n)``.

        Row ``i`` holds, for each box row, the summed solid angle of the
        texels that box owns from ``viewpoints[i]`` — eq. 1's visible
        part before normalisation by ``4 * pi``.  One offset ``bincount``
        accumulates every viewpoint at once, in the same per-viewpoint
        ray order as :meth:`dov_from_viewpoint`, so the sums are
        bit-identical to the scalar path.
        """
        viewpoints = np.atleast_2d(np.asarray(viewpoints, dtype=np.float64))
        num_vps = len(viewpoints)
        num_boxes = len(self.boxes)
        ids = self._nearest_ids_batch(viewpoints)          # (v, r)
        hit_mask = ids >= 0
        if not hit_mask.any() or num_boxes == 0:
            return np.zeros((num_vps, num_boxes))
        # Offset each viewpoint's box rows into its own bincount segment.
        offsets = np.arange(num_vps, dtype=np.int64)[:, None] * num_boxes
        flat_ids = (ids + offsets)[hit_mask]
        omegas = np.broadcast_to(self.solid_angles,
                                 ids.shape)[hit_mask]
        sums = np.bincount(flat_ids, weights=omegas,
                           minlength=num_vps * num_boxes)
        return sums.reshape(num_vps, num_boxes)

    def dov_from_viewpoint(self, viewpoint: PointLike) -> Dict[int, float]:
        """Point DoV (eq. 1's visible part, projected): object id -> DoV.

        Objects with no owned texel are absent (DoV 0).
        """
        viewpoint = np.asarray(viewpoint, dtype=np.float64)
        ids = self._nearest_ids(viewpoint)
        result: Dict[int, float] = {}
        hit_mask = ids >= 0
        if not hit_mask.any():
            return result
        hit_rows = ids[hit_mask]
        omegas = self.solid_angles[hit_mask]
        sums = np.bincount(hit_rows, weights=omegas, minlength=len(self.boxes))
        for row in np.nonzero(sums)[0]:
            oid = int(self.object_ids[row])
            result[oid] = float(min(sums[row] / FULL_SPHERE, 1.0))
        return result

    def dov_from_region(self,
                        viewpoints: Sequence[PointLike]) -> Dict[int, float]:
        """Conservative region DoV (eq. 2): per-object max over samples.

        Computed for the whole sample block with one batched kernel call;
        bit-identical to merging :meth:`dov_from_viewpoint` results.
        """
        if not len(viewpoints):
            raise VisibilityError("need at least one sample viewpoint")
        if not self._unique_ids:
            return self._dov_from_region_pointwise(viewpoints)
        sums = self.dov_sums(np.asarray(viewpoints, dtype=np.float64))
        return self.region_dov_from_sums(sums)

    def region_dov_from_sums(self, sums: np.ndarray) -> Dict[int, float]:
        """Reduce a ``(v, n)`` :meth:`dov_sums` block to the region DoV.

        The per-object max over samples (eq. 2), normalised and clamped.
        Exposed so the precompute pipeline can slice one batched
        ``dov_sums`` result into per-cell sample blocks.
        """
        region = np.max(np.atleast_2d(sums), axis=0)       # (n,)
        result: Dict[int, float] = {}
        for row in np.nonzero(region)[0]:
            oid = int(self.object_ids[row])
            result[oid] = float(min(region[row] / FULL_SPHERE, 1.0))
        return result

    def _dov_from_region_pointwise(
            self, viewpoints: Sequence[PointLike]) -> Dict[int, float]:
        """The pre-batching merge, kept for duplicate-id estimators."""
        merged: Dict[int, float] = {}
        for viewpoint in viewpoints:
            point_dov = self.dov_from_viewpoint(viewpoint)
            for oid, value in point_dov.items():
                if value > merged.get(oid, 0.0):
                    merged[oid] = value
        return merged
