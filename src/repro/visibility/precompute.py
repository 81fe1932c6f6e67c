"""Per-cell visibility precomputation pipeline.

The paper's offline step: "A conservative visibility algorithm is also
applied on pre-determined cells to find visible objects in each cell.  A
hardware-accelerated DoV algorithm is then applied on the visible set..."
Here both steps are the ray-cast estimator; the conservative part is the
per-cell max over sample viewpoints (eq. 2).

This is the slowest path in the system, so it is engineered in two
layers, either of which can be used alone:

* **Batching** — cells are processed ``batch_cells`` at a time: all of a
  batch's sample viewpoints go through one call to the estimator's
  vectorized :meth:`~repro.visibility.raycast.RayCastDoVEstimator.dov_sums`,
  replacing the per-viewpoint Python loop and dict merge of the seed
  implementation with one slab-kernel invocation plus an offset
  ``bincount`` and a per-cell ``max`` reduction.
* **Process parallelism** — ``workers=N`` shards cell batches across a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker builds
  its estimator once from an initializer (no large arrays pickled per
  task), and results are keyed by cell id, so the table is independent
  of scheduling order.

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
is **bit-identical** across every combination of ``batch_cells`` and
``workers``, identical to the seed serial per-viewpoint path and to
the unculled full-matrix reference
(``slab_entry_matrix`` -> ``argmin`` -> ``bincount``).  The slab kernel
performs the same per-element float32 operations regardless of batch
shape or of which other boxes share the call, and all reductions run in
a fixed (ray-major, then viewpoint) order; parity is enforced by tests
and by the CI determinism gate.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
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

#: Default number of cells whose samples share one kernel invocation.
#: 16 cells x a few samples keeps the (viewpoints, rays/8, boxes)
#: intermediates well inside cache-friendly territory while amortising
#: the per-call dispatch overhead that dominates small scenes.
DEFAULT_BATCH_CELLS = 16

# Worker-process state, created once per worker by _worker_init so the
# estimator's packed boxes and ray grid are never pickled per task.
_worker_estimator: Optional[RayCastDoVEstimator] = None


def _worker_init(boxes: np.ndarray, object_ids: np.ndarray,
                 resolution: int) -> None:
    global _worker_estimator
    _worker_estimator = RayCastDoVEstimator(boxes, object_ids=list(object_ids),
                                            resolution=resolution)


def _worker_compute(grid: CellGrid, cell_ids: Sequence[int],
                    samples_per_cell: int,
                    min_dov: float) -> List[CellResult]:
    if _worker_estimator is None:     # pragma: no cover - executor misuse
        raise VisibilityError("worker estimator was not initialised")
    return compute_cell_batch(_worker_estimator, grid, cell_ids,
                              samples_per_cell, min_dov)


def compute_cell_batch(estimator: RayCastDoVEstimator, grid: CellGrid,
                       cell_ids: Sequence[int], samples_per_cell: int,
                       min_dov: float) -> List[CellResult]:
    """DoV tables for a batch of cells via one vectorized kernel call.

    All of the batch's sample viewpoints are cast together; the
    ``(viewpoints, boxes)`` solid-angle sums are then sliced back into
    per-cell blocks and reduced with eq. 2's max.  Bit-identical to
    calling :meth:`dov_from_region` per cell.
    """
    viewpoints: List[np.ndarray] = []
    for cell_id in cell_ids:
        viewpoints.extend(grid.sample_viewpoints(cell_id,
                                                 samples=samples_per_cell))
    sums = estimator.dov_sums(np.asarray(viewpoints, dtype=np.float64))
    results: List[CellResult] = []
    for index, cell_id in enumerate(cell_ids):
        block = sums[index * samples_per_cell:(index + 1) * samples_per_cell]
        region = estimator.region_dov_from_sums(block)
        kept = {oid: value for oid, value in region.items()
                if value > min_dov}
        results.append((cell_id, kept))
    return results


def _batches(cell_ids: Sequence[int],
             batch_cells: int) -> List[List[int]]:
    return [list(cell_ids[start:start + batch_cells])
            for start in range(0, len(cell_ids), batch_cells)]


def _compute_serial(estimator: RayCastDoVEstimator, grid: CellGrid,
                    cell_ids: Sequence[int], samples_per_cell: int,
                    min_dov: float, batch_cells: int,
                    on_batch: Callable[[List[CellResult]], None]) -> None:
    for batch in _batches(cell_ids, batch_cells):
        with span("precompute_batch", cells=len(batch)):
            on_batch(compute_cell_batch(estimator, grid, batch,
                                        samples_per_cell, min_dov))


def _compute_parallel(estimator: RayCastDoVEstimator, grid: CellGrid,
                      cell_ids: Sequence[int], samples_per_cell: int,
                      min_dov: float, batch_cells: int, workers: int,
                      on_batch: Callable[[List[CellResult]], None]) -> None:
    with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init,
            initargs=(estimator.boxes, estimator.object_ids,
                      estimator.resolution)) as executor:
        futures: List[Future[List[CellResult]]] = [
            executor.submit(_worker_compute, grid, batch,
                            samples_per_cell, min_dov)
            for batch in _batches(cell_ids, batch_cells)]
        # Collect in submission order: results land in the table keyed
        # by cell id anyway, but ordered collection also keeps the
        # progress output reproducible.
        for future in futures:
            with span("precompute_batch_collect"):
                on_batch(future.result())


def precompute_visibility(scene: Scene, grid: CellGrid, *,
                          resolution: int = 32,
                          samples_per_cell: int = 1,
                          min_dov: float = 0.0,
                          workers: Optional[int] = None,
                          batch_cells: int = DEFAULT_BATCH_CELLS,
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
    min_dov:
        Optional floor below which an object is treated as hidden.  The
        paper keeps every DoV > 0; experiments leave this at 0.
    workers:
        Process count for data-parallel sharding; ``None`` or 1 runs in
        this process.  Any worker count yields a bit-identical table.
    batch_cells:
        Cells whose sample viewpoints share one vectorized kernel call
        (and, under ``workers``, the unit of work sent to the pool).
    progress:
        Optional ``callback(cells_done, cells_total)`` invoked once
        before the first batch and after every finished batch.
    """
    if len(scene) == 0:
        raise VisibilityError("cannot precompute visibility of empty scene")
    # NaN and inf pass ``min_dov < 0``, and then no DoV passes ``> min_dov``.
    if not 0.0 <= min_dov < float("inf"):
        raise VisibilityError(
            f"min_dov must be finite and >= 0, got {min_dov}")
    if resolution < 1:
        raise VisibilityError(f"resolution must be >= 1, got {resolution}")
    if samples_per_cell < 1:
        raise VisibilityError(
            f"samples_per_cell must be >= 1, got {samples_per_cell}")
    if batch_cells < 1:
        raise VisibilityError(
            f"batch_cells must be >= 1, got {batch_cells}")
    if workers is not None and workers < 1:
        raise VisibilityError(f"workers must be >= 1, got {workers}")
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

    def on_batch(results: List[CellResult]) -> None:
        nonlocal done
        for cell_id, dov in results:
            table.put(CellVisibility(cell_id, dov=dov))
        m_cells.inc(len(results))
        m_rays.inc(len(results) * samples_per_cell * estimator.num_rays)
        done += len(results)
        if progress is not None:
            progress(done, total)

    cell_ids = list(grid.cell_ids())
    with span("precompute", cells=total, workers=workers or 1,
              batch_cells=batch_cells):
        if workers is not None and workers > 1:
            _compute_parallel(estimator, grid, cell_ids, samples_per_cell,
                              min_dov, batch_cells, workers, on_batch)
        else:
            _compute_serial(estimator, grid, cell_ids, samples_per_cell,
                            min_dov, batch_cells, on_batch)
    return table
