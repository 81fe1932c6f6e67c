"""The shared ray/AABB slab kernel.

Every ray-vs-box intersection in the library funnels through this one
module: the full-matrix kernel behind :func:`repro.geometry.rays.rays_vs_aabbs`,
the scalar convenience wrapper, and the DoV estimator's nearest-hit hot
path all call :func:`slab_entry_exit_group`.  Having exactly one slab
implementation removes the drift the three copies had accumulated (the
estimator had the octant near/far trick, the matrix kernel did not) and
means an optimisation here lands everywhere at once.

The kernel is *octant grouped*: rays are partitioned by the sign octant
of their direction, so each box's near and far slab bound per axis is
selected once per octant — ``np.where(positive, lo, hi)`` on a ``(b, 3)``
array — instead of per ``(ray, box)`` element.  It is also *batched over
origins*: a ``(v, 3)`` block of viewpoints is intersected in one call,
producing ``(v, g, b)`` intermediates, which amortises the per-call
Python and numpy dispatch overhead that dominates small scenes.

Numerical contract: the kernel preserves the dtype of its inputs and
performs the identical per-element operation sequence whether it is
called with one origin or a thousand, so batched results are
bit-identical to one-at-a-time results.  The visibility precompute
pipeline's determinism guarantee rests on this.

The octant cull: :func:`slab_nearest` does not test every ray against
every box.  For an origin block with bounds ``[o_min, o_max]`` and an
octant group it keeps the box rows with ``hi[a] >= o_min[a]`` on each
axis where the group's directions are positive and ``lo[a] <= o_max[a]``
on each axis where they are non-positive (negative or zero).  A dropped
box is one the kernel itself reports as a miss: its far bound on that
axis lies strictly behind every origin of the block, so
``inv * (far - o)`` is strictly negative (``|inv| >= 1`` for unit
directions: no underflow to ``-0.0``), or ``_fix_parallel`` writes
``t_far = -inf``; hence ``tmax < 0 <= tmin``.  Kept rows stay in order,
so ``argmin``'s lowest-row tie-break survives.  DESIGN.md section 6 has
the full argument; :func:`slab_entry_matrix` keeps the every-ray-every-
box contract and is the unculled reference the tests compare against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: Value used for "no hit" in entry-distance arrays.
NO_HIT = np.inf

#: Target element count for one ``(v, g, b)`` intermediate, counted
#: before the octant cull (which typically leaves a quarter of it);
#: origins are chunked so a batch never materialises more than roughly
#: this many floats per temporary.  The kernel makes ~10 passes over
#: each intermediate, so a small one stays cache-resident, and a short
#: block of consecutive origins keeps the cull's bounds tight.
#: Re-measured with the cull against an 8x larger target: 1.14 s vs
#: 1.29 s on the 609-box benchmark scene, 0.11 s vs 0.15 s on the
#: precompute bench's small scene; half or double is within 10 %.
#: Chunking never changes a result bit (elementwise per origin).
_CHUNK_ELEMENTS = 131_072

#: One octant group: (original ray indices, their direction rows).
OctantGroups = List[Tuple[np.ndarray, np.ndarray]]


def group_rays_by_octant(directions: np.ndarray) -> OctantGroups:
    """Partition rays into (index array, direction array) per sign octant.

    A zero direction component sorts into the non-positive bucket; the
    kernel handles such axis-parallel rays explicitly, so the grouping
    only needs to be *consistent*, not sign-exact.  The returned
    direction rows keep the dtype of ``directions``.
    """
    signs = directions > 0.0
    codes = signs[:, 0] * 4 + signs[:, 1] * 2 + signs[:, 2]
    groups: OctantGroups = []
    for code in range(8):
        idx = np.nonzero(codes == code)[0]
        if len(idx):
            groups.append((idx, directions[idx]))
    return groups


def slab_entry_exit_group(origins: np.ndarray, dirs: np.ndarray,
                          lo: np.ndarray, hi: np.ndarray,
                          scratch: Optional[np.ndarray] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """The slab kernel for one sign-homogeneous direction group.

    Parameters
    ----------
    origins:
        ``(v, 3)`` ray origins (the batch dimension).
    dirs:
        ``(g, 3)`` directions that all share one sign octant (zero
        components allowed, and handled as axis-parallel rays).
    lo, hi:
        ``(b, 3)`` box bounds.
    scratch:
        Optional flat buffer of at least ``4 * v * g * b`` elements of
        the inputs' dtype.  The result and the per-axis temporaries are
        carved from it, so a caller looping over groups pays for the
        pages once; the returned arrays are then views that the next
        call with the same buffer overwrites.

    Returns
    -------
    (tmin, tmax):
        ``(v, g, b)`` arrays.  ``tmin`` is the entry distance already
        clamped to ``>= 0`` (a ray starting inside a box enters at 0);
        a ray hits iff ``tmax >= tmin``.  Dtype follows the inputs.
    """
    shape = (len(origins), len(dirs), len(lo))
    size = shape[0] * shape[1] * shape[2]
    if scratch is None:
        scratch = np.empty(4 * size,
                           dtype=np.result_type(origins, dirs, lo, hi))
    tmin, tmax, t1, t2 = (scratch[i * size:(i + 1) * size].reshape(shape)
                          for i in range(4))
    positive = dirs[0] > 0.0                            # octant signs
    near = np.where(positive, lo, hi)                   # (b, 3)
    far = np.where(positive, hi, lo)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = dirs.dtype.type(1.0) / dirs               # (g, 3)
        for axis in range(3):
            # Axis 0 seeds the accumulators; axes 1 and 2 tighten them.
            t_near, t_far = (tmin, tmax) if axis == 0 else (t1, t2)
            np.multiply(inv[None, :, axis, None],
                        near[None, None, :, axis]
                        - origins[:, None, None, axis], out=t_near)
            np.multiply(inv[None, :, axis, None],
                        far[None, None, :, axis]
                        - origins[:, None, None, axis], out=t_far)
            _fix_parallel(axis, dirs, origins, lo, hi, t_near, t_far)
            if axis:
                np.maximum(tmin, t1, out=tmin)
                np.minimum(tmax, t2, out=tmax)
    # Entry distance; rays starting inside a box hit at t = 0.
    np.maximum(tmin, tmin.dtype.type(0.0), out=tmin)
    return tmin, tmax


def _fix_parallel(axis: int, dirs: np.ndarray, origins: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray,
                  t_near: np.ndarray, t_far: np.ndarray) -> None:
    """Overwrite slab times of axis-parallel rays in place.

    A ray with ``d[axis] == 0`` is never constrained by that slab when
    its origin lies inside it, and misses every box outside it; the
    division above produced ``inf``/``nan`` garbage for those rows, so
    they are replaced wholesale — on the accumulator-seeding axis 0
    exactly as on the tightening axes.
    """
    parallel = dirs[:, axis] == 0.0                     # (g,)
    if not parallel.any():
        return
    inside = ((origins[:, axis, None] >= lo[None, :, axis])
              & (origins[:, axis, None] <= hi[None, :, axis]))  # (v, b)
    rows = np.nonzero(parallel)[0]
    pos_inf = t_near.dtype.type(np.inf)
    neg_inf = t_near.dtype.type(-np.inf)
    t_near[:, rows, :] = np.where(inside, neg_inf, pos_inf)[:, None, :]
    t_far[:, rows, :] = np.where(inside, pos_inf, neg_inf)[:, None, :]


def slab_entry_matrix(origin: np.ndarray, directions: np.ndarray,
                      boxes_lo: np.ndarray, boxes_hi: np.ndarray
                      ) -> np.ndarray:
    """Full ``(r, b)`` entry-distance matrix for one origin.

    ``NO_HIT`` marks misses; hits report the (clamped, ``>= 0``) entry
    distance.  This is the kernel behind
    :func:`repro.geometry.rays.rays_vs_aabbs`.
    """
    origin = np.atleast_2d(origin)                      # (1, 3)
    num_rays = len(directions)
    num_boxes = len(boxes_lo)
    out = np.full((num_rays, num_boxes), NO_HIT, dtype=directions.dtype)
    if num_boxes == 0:
        return out
    for idx, dirs in group_rays_by_octant(directions):
        tmin, tmax = slab_entry_exit_group(origin, dirs, boxes_lo, boxes_hi)
        hit = tmax >= tmin                              # (1, g, b)
        out[idx] = np.where(hit, tmin, NO_HIT)[0]
    return out


def slab_nearest(origins: np.ndarray, directions: np.ndarray,
                 boxes_lo: np.ndarray, boxes_hi: np.ndarray,
                 groups: Optional[OctantGroups] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-ray nearest box row for a batch of origins.

    Parameters
    ----------
    origins:
        ``(v, 3)`` viewpoint batch.
    directions:
        ``(r, 3)`` shared ray directions.
    boxes_lo, boxes_hi:
        ``(b, 3)`` box bounds.
    groups:
        Precomputed :func:`group_rays_by_octant` result for
        ``directions`` — callers that cast the same ray set repeatedly
        (the DoV estimator) group once at construction time.

    Returns
    -------
    (ids, ts):
        ``(v, r)`` int64 nearest box rows (``-1`` for a miss) and the
        matching entry distances (``NO_HIT`` for a miss).  Origins are
        chunked internally to bound the ``(v, g, b)`` intermediates,
        and each (chunk, octant) is intersected only with the boxes the
        octant cull (module docstring) cannot rule out; neither changes
        any result bit.
    """
    origins = np.atleast_2d(origins)
    num_vps = len(origins)
    num_rays = len(directions)
    num_boxes = len(boxes_lo)
    ids = np.full((num_vps, num_rays), -1, dtype=np.int64)
    ts = np.full((num_vps, num_rays), NO_HIT, dtype=directions.dtype)
    if num_boxes == 0:
        return ids, ts
    if groups is None:
        groups = group_rays_by_octant(directions)
    largest = max(len(idx) for idx, _dirs in groups)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, largest * num_boxes))
    scratch = np.empty(4 * min(chunk, num_vps) * largest * num_boxes,
                       dtype=np.result_type(origins, directions,
                                            boxes_lo, boxes_hi))
    for start in range(0, num_vps, chunk):
        stop = min(start + chunk, num_vps)
        block = origins[start:stop]
        # Octant cull (module docstring): per axis, the boxes not wholly
        # behind the block for a positive / a non-positive direction.
        ahead_pos = (boxes_hi >= block.min(axis=0)).T   # (3, b)
        ahead_neg = (boxes_lo <= block.max(axis=0)).T
        rows = np.arange(stop - start)[:, None]
        for idx, dirs in groups:
            ahead = [ahead_pos[axis] if dirs[0, axis] > 0.0
                     else ahead_neg[axis] for axis in range(3)]
            kept = np.nonzero(ahead[0] & ahead[1] & ahead[2])[0]
            if not len(kept):
                continue
            tmin, tmax = slab_entry_exit_group(block, dirs,
                                               boxes_lo[kept],
                                               boxes_hi[kept], scratch)
            hit = tmax >= tmin
            tmin[~hit] = np.inf
            best = np.argmin(tmin, axis=2)              # (v, g)
            cols = np.arange(len(dirs))[None, :]
            best_t = tmin[rows, cols, best]
            found = np.isfinite(best_t)
            ids[start:stop, idx] = np.where(found, kept[best], -1)
            ts[start:stop, idx] = np.where(found, best_t, NO_HIT)
    return ids, ts
