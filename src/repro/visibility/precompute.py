"""Per-cell visibility precomputation pipeline.

The paper's offline step: "A conservative visibility algorithm is also
applied on pre-determined cells to find visible objects in each cell.  A
hardware-accelerated DoV algorithm is then applied on the visible set..."
Here both steps are the ray-cast estimator; the conservative part is the
per-cell max over sample viewpoints (eq. 2).

This is the slowest path in the system, so it is engineered in two
layers, either of which can be used alone:

* **Batching** — cells are processed ``BATCH_CELLS`` at a time: all of a
  batch's sample viewpoints go through one call to the estimator's
  vectorized :meth:`~repro.visibility.raycast.RayCastDoVEstimator.dov_sums`,
  replacing the per-viewpoint Python loop and dict merge of the seed
  implementation with one slab-kernel invocation plus an offset
  ``bincount`` and a per-cell ``max`` reduction.
* **Process parallelism** — batches are dealt round-robin over
  ``workers`` shares, by default one per usable CPU.  This process
  computes share 0; a forked child, inheriting the estimator, computes
  each other share and pipes its results back once.  No thread starts
  (DESIGN.md §10), no child outlives the call, and batches are booked
  here in batch order: table, spans, counters and progress match.

What is *not* computed: the nearest-hit kernel
(:func:`repro.geometry.slab.slab_nearest`) skips, per block of
consecutive viewpoints and per direction-sign octant, the boxes wholly
behind the block along some axis, and it stops each ray once no box
farther away can be hit first: its best hit is closer than the next
distance band of boxes, or it has left the box of all boxes before
reaching that band.  Skipped pairs are ones the slab arithmetic itself
reports as misses or as strictly later hits (that module's docstring),
so no owner changes.  On the benchmark scene about 5 % of rays x boxes
are evaluated (26 % with the octant cull alone).  Ray count,
resolution and samples are untouched.  Batches are consecutive cell
ids, i.e. neighbouring cells, which keeps a block's bounds, and the
culls, tight.

Determinism contract: for a given scene, grid and estimator
configuration, the resulting :class:`~repro.visibility.dov.VisibilityTable`
is **bit-identical** across every batch size and every ``workers``,
identical to the seed serial per-viewpoint path and to the unculled
full-matrix reference
(``slab_entry_matrix`` -> ``argmin`` -> ``bincount``).  The slab kernel
performs the same per-element float32 operations regardless of batch
shape or of which other boxes share the call, and all reductions run in
a fixed (ray-major, then viewpoint) order; parity is enforced by tests
and by the CI determinism gate.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import VisibilityError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.scene.objects import Scene
from repro.visibility.cells import CellGrid
from repro.visibility.dov import CellVisibility, VisibilityTable
from repro.visibility.raycast import RayCastDoVEstimator

#: One result row: (cell id, post-threshold DoV mapping).
CellResult = Tuple[int, Dict[int, float]]

#: Optional progress hook: ``callback(cells_done, cells_total)``.
ProgressFn = Callable[[int, int], None]

#: Cells whose samples share one kernel invocation (and the unit dealt
#: to the workers).  16 cells x a few samples keeps the (viewpoints,
#: rays/8, boxes) intermediates well inside cache-friendly territory
#: while amortising the per-call dispatch overhead that dominates small
#: scenes.
BATCH_CELLS = 16


def compute_cell_batch(estimator: RayCastDoVEstimator, grid: CellGrid,
                       cell_ids: Sequence[int],
                       samples_per_cell: int) -> List[CellResult]:
    """DoV tables for a batch of cells via one vectorized kernel call.

    All of the batch's sample viewpoints are cast together; the
    ``(viewpoints, boxes)`` solid-angle sums are then sliced back into
    per-cell blocks and reduced with eq. 2's max.  Bit-identical to
    calling :meth:`dov_from_region` per cell.  As in the paper, every
    object with a DoV > 0 is kept.
    """
    viewpoints: List[np.ndarray] = []
    for cell_id in cell_ids:
        viewpoints.extend(grid.sample_viewpoints(cell_id,
                                                 samples=samples_per_cell))
    sums = estimator.dov_sums(np.asarray(viewpoints, dtype=np.float64))
    results: List[CellResult] = []
    for index, cell_id in enumerate(cell_ids):
        block = sums[index * samples_per_cell:(index + 1) * samples_per_cell]
        results.append((cell_id, estimator.region_dov_from_sums(block)))
    return results


def worker_count(workers: Optional[int], num_cells: int) -> int:
    """The process count :func:`precompute_visibility` runs with:
    ``workers``, or if ``None`` one per CPU this process may run on (1
    without ``fork`` or a CPU set), capped at the batch count."""
    forkable = "fork" in multiprocessing.get_all_start_methods()
    if workers is not None and (workers < 1 or workers > 1 and not forkable):
        raise VisibilityError(f"workers must be >= 1, and 1 without the "
                              f"'fork' start method; got {workers}")
    affinity = getattr(os, "sched_getaffinity", None)     # Linux only
    count = workers or (len(affinity(0)) if forkable and affinity else 1)
    return max(1, min(count, -(-num_cells // BATCH_CELLS)))


def _compute(estimator: RayCastDoVEstimator, grid: CellGrid,
             batches: List[List[int]], samples_per_cell: int,
             workers: int) -> List[List[List[CellResult]]]:
    """Each share's batch results (share k is ``batches[k::workers]``, a
    forked child's for k > 0); a failed share raises VisibilityError."""
    def compute(share: int) -> List[List[CellResult]]:
        return [compute_cell_batch(estimator, grid, batch, samples_per_cell)
                for batch in batches[share::workers]]

    def send(writer: Connection, share: int) -> None:   # a child's body
        try:
            writer.send((True, compute(share)))
        except Exception:
            writer.send((False, traceback.format_exc()))

    children: List[Tuple[BaseProcess, Connection]] = []
    try:
        for share in range(1, workers):
            reader, writer = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(
                target=send, args=(writer, share))
            child.start()
            writer.close()
            children.append((child, reader))
        try:
            shares = [compute(0)]
        except Exception as exc:
            raise VisibilityError(f"precompute failed: {exc}") from exc
        for share, (child, reader) in enumerate(children, start=1):
            try:
                ok, payload = reader.recv()
            except EOFError:
                ok, payload = False, "exited without its results"
            if not ok:
                raise VisibilityError(f"precompute worker {share}: {payload}")
            shares.append(payload)
            child.join()
    finally:
        for child, reader in children:
            child.terminate()       # a no-op on a joined child
            child.join()
            reader.close()
    return shares


def precompute_visibility(scene: Scene, grid: CellGrid, *,
                          resolution: int = 32,
                          samples_per_cell: int = 1,
                          workers: Optional[int] = None,
                          progress: Optional[ProgressFn] = None
                          ) -> VisibilityTable:
    """Compute the per-cell DoV table for ``scene`` over ``grid``.

    Parameters
    ----------
    resolution:
        Cube-map resolution of the estimator.
    samples_per_cell:
        Viewpoint samples per cell; 1 uses the cell center only.  More
        samples make the region DoV more conservative (eq. 2 is a max
        over all cell points) at linear precomputation cost.
    workers:
        Process count; ``None`` means one per CPU this process may run
        on (:func:`worker_count`).  Any count yields a bit-identical
        table and the same spans, counters and progress calls.
    progress:
        Optional ``callback(cells_done, cells_total)`` invoked once
        before the first batch and after every booked batch.
    """
    if len(scene) == 0:
        raise VisibilityError("cannot precompute visibility of empty scene")
    if resolution < 1:
        raise VisibilityError(f"resolution must be >= 1, got {resolution}")
    if samples_per_cell < 1:
        raise VisibilityError(
            f"samples_per_cell must be >= 1, got {samples_per_cell}")
    workers = worker_count(workers, grid.num_cells)
    estimator = RayCastDoVEstimator(scene.packed_mbrs(),
                                    object_ids=scene.object_ids(),
                                    resolution=resolution)

    registry = get_registry()
    m_cells = registry.counter(names.PRECOMPUTE_CELLS)
    m_rays = registry.counter(names.PRECOMPUTE_RAYS)

    table = VisibilityTable(grid.num_cells)
    total = grid.num_cells
    done = 0
    if progress is not None:
        progress(done, total)

    cell_ids = list(grid.cell_ids())
    batches = [cell_ids[start:start + BATCH_CELLS]
               for start in range(0, total, BATCH_CELLS)]
    with span("precompute", cells=total, workers=workers,
              batch_cells=BATCH_CELLS):
        shares = _compute(estimator, grid, batches, samples_per_cell, workers)
        for index, batch in enumerate(batches):
            with span("precompute_batch", cells=len(batch)):
                for cell_id, dov in shares[index % workers][index // workers]:
                    table.put(CellVisibility(cell_id, dov=dov))
                m_cells.inc(len(batch))
                m_rays.inc(len(batch) * samples_per_cell * estimator.num_rays)
                done += len(batch)
                if progress is not None:
                    progress(done, total)
    return table
