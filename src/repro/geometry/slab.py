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
``t_far = -inf``; hence ``tmax < 0 <= tmin``.

The distance cull: the kept rows are ordered by ``D``, the length of
the per-axis gap between the block's bounds and the box less a
``_MARGIN`` share, and intersected in bands (``_BAND_ENDS``), nearest
band first and each band in ascending row order; bands combine by the
lexicographic minimum of ``(t, row)``, so ``argmin``'s lowest-row
tie-break holds across them.  Before the next band a ray leaves once,
from every origin of the block, its best ``t`` is strictly below that
band's nearest ``D / ||d||`` (less the dtype's smallest subnormal) —
any box there is entered later, since a ray must cross each axis' gap —
or once its *reach* is: the ray parameter at which it leaves the
bounding box of all boxes, per axis from the block's extreme that
maximises it, computed with the kernel's own ``inv * (face - o)``, so
that it bounds every far time the kernel can produce.  The margin
covers the kernel's rounding (three roundings, ~2e-7 in float32,
against 1e-3).  An edge that falls among rows at distance 0 is
skipped: its bound is below 0, so no best hit can stop there, and on a
small scene of large cells the extra kernel call was all the bands
cost.  DESIGN.md section 6 has both arguments in full;
:func:`slab_entry_matrix` keeps the every-ray-every-box contract and is
the unculled reference the tests compare against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: Value used for "no hit" in entry-distance arrays.
NO_HIT = np.inf

#: Smallest origin block, and target element count for one ``(v, g, b)``
#: intermediate counted before any cull: a block holds at least
#: ``_BLOCK_ORIGINS`` consecutive origins, more when a scene is so small
#: that ``_CHUNK_ELEMENTS`` allows it.  A short block keeps the culls'
#: bounds tight (consecutive viewpoints are neighbouring cells, and a
#: block that wraps to the next row of cells culls little); small
#: scenes gain more from fewer, larger kernel calls.  Precompute time,
#: best of 5 (3 at `medium`) on a 2-core x86 container, block 4 / 8 /
#: 2: `medium` (821 boxes, 3,456 rays) 1.44 / 2.45 / 1.73 s; the
#: benchmark scene (609 boxes, 1,536 rays) 0.60 / 0.56 / 0.84 s.  The
#: bench's small scene (117 boxes, 16 samples a cell) takes 0.14 s with
#: the element rule (blocks of 23) and 0.23 s without it.  Blocking
#: never changes a result bit (elementwise per origin).
_BLOCK_ORIGINS = 4
_CHUNK_ELEMENTS = 131_072

#: Where the distance bands end, in kept rows nearest first; the last
#: band runs to the end, and an edge among rows at distance 0 is
#: skipped.  At street level 90 % of the rays that hit anything hit one
#: of the 8 nearest boxes, so the first band is small; 16 / 64 / 256
#: was within noise of 12 / 48 / 192, of 24 / 96 / 384 and of two or
#: five bands on the benchmark scene.
_BAND_ENDS = (16, 64, 256)

#: Relative shrink of ``D``: the kernel's near time is at most three
#: roundings (relative 2^-24 each in float32) below ``gap / |d|``.
_MARGIN = 1e-3

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
        taken ``_BLOCK_ORIGINS`` at a time, and each (block, octant) is
        intersected band by band only with the boxes the octant and
        distance culls (module docstring) cannot rule out; none of this
        changes any result bit.
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
    per_block = max(_BLOCK_ORIGINS,
                    _CHUNK_ELEMENTS // (largest * num_boxes))
    scratch = np.empty(4 * min(per_block, num_vps) * largest * num_boxes,
                       dtype=np.result_type(origins, directions,
                                            boxes_lo, boxes_hi))
    lo64 = boxes_lo.astype(np.float64)
    hi64 = boxes_hi.astype(np.float64)
    dirs64 = directions.astype(np.float64)
    norms = np.hypot(np.hypot(dirs64[:, 0], dirs64[:, 1]), dirs64[:, 2])
    positive = directions > 0.0                         # (r, 3)
    exit_faces = np.where(positive, boxes_hi.max(axis=0),
                          boxes_lo.min(axis=0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = directions.dtype.type(1.0) / directions
        for start in range(0, num_vps, per_block):
            stop = min(start + per_block, num_vps)
            block = origins[start:stop]
            o_min = block.min(axis=0)
            o_max = block.max(axis=0)
            # Octant cull (module docstring): per axis, the boxes not
            # wholly behind the block for a positive / a non-positive
            # direction.
            ahead_pos = (boxes_hi >= o_min).T           # (3, b)
            ahead_neg = (boxes_lo <= o_max).T
            # Distance cull: D(box), at most the distance from any block
            # origin to the box, less the rounding margin; nearest first.
            gap = np.maximum(np.maximum(lo64 - o_max, o_min - hi64), 0.0)
            dist = np.sqrt((gap * gap).sum(axis=1)) * (1.0 - _MARGIN)
            nearest = np.argsort(dist, kind="stable")
            # Reach: where each ray leaves the box of all boxes, per axis
            # from the block's extreme that maximises it, in the kernel's
            # arithmetic.
            exits = inv * (exit_faces - np.where(positive, o_min, o_max))
            reach = np.where(directions == 0.0, np.inf, exits).min(axis=1)
            for idx, dirs in groups:
                ahead = [ahead_pos[axis] if dirs[0, axis] > 0.0
                         else ahead_neg[axis] for axis in range(3)]
                order = nearest[(ahead[0] & ahead[1] & ahead[2])[nearest]]
                if not len(order):
                    continue
                best_t, best_row = _nearest_by_band(
                    block, dirs, boxes_lo, boxes_hi, order, dist,
                    norms[idx], reach[idx], scratch)
                found = np.isfinite(best_t)
                ids[start:stop, idx] = np.where(found, best_row, -1)
                ts[start:stop, idx] = np.where(found, best_t, NO_HIT)
    return ids, ts


def _nearest_by_band(block: np.ndarray, dirs: np.ndarray,
                     boxes_lo: np.ndarray, boxes_hi: np.ndarray,
                     order: np.ndarray, dist: np.ndarray,
                     norms: np.ndarray, reach: np.ndarray,
                     scratch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Lexicographic minimum of ``(t, row)`` over the rows of ``order``
    (nearest first) for one origin block and one octant group; a miss
    has ``t = inf``.  A ray leaves before the next band once its best
    ``t`` from every origin, or its ``reach``, is strictly below that
    band's ``D / ||d||`` (module docstring)."""
    slack = np.finfo(scratch.dtype).smallest_subnormal
    rows = np.arange(len(block))[:, None]
    live = np.arange(len(dirs))
    first = 0
    for end in _BAND_ENDS + (None,):
        if end is not None and end < len(order) and dist[order[end]] == 0.0:
            continue            # an edge among rows the block touches
        band = np.sort(order[first:end])
        tmin, tmax = slab_entry_exit_group(block, dirs[live], boxes_lo[band],
                                           boxes_hi[band], scratch)
        tmin[~(tmax >= tmin)] = np.inf
        pick = np.argmin(tmin, axis=2)                  # (v, live)
        t = tmin[rows, np.arange(len(live)), pick]
        row = band[pick]
        if first == 0:
            best_t, best_row = t, row
        else:
            old_t, old_row = best_t[:, live], best_row[:, live]
            take = (t < old_t) | ((t == old_t) & (row < old_row))
            best_t[:, live] = np.where(take, t, old_t)
            best_row[:, live] = np.where(take, row, old_row)
        if end is None or end >= len(order):
            break
        first = end
        bound = dist[order[end]] / norms[live] - slack
        live = live[~((best_t[:, live] < bound).all(axis=0)
                      | (reach[live] < bound))]
        if not len(live):
            break
    return best_t, best_row
