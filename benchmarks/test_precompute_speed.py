"""Bench: precompute pipeline vs the unculled per-viewpoint reference.

The reference side does not share the nearest-hit kernel it is compared
with: per viewpoint it takes the full every-ray-every-box float32 entry
matrix (``slab_entry_matrix``), the ``argmin`` per ray and a
``bincount`` — no cull, no batching, no origin chunking.  The pipeline
(:func:`precompute_visibility`, in process and with two workers) is
timed against it at two sizes and emits ``BENCH_precompute.json``:

* the SMALL scene (36 cells, 16 samples, resolution 8), where per-call
  overhead dominates and the gain is batching;
* the repository benchmark's scene shape (``BENCHMARK.json``: 12x12
  blocks, 576 cells, resolution 16, 1 sample), where a kernel chunk is a
  single viewpoint and the gain is the octant cull (``speedup_culled``).

Every table must stay bit-identical to the reference's (the determinism
contract), so the bench doubles as an end-to-end parity check at
benchmark scale.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.experiments.config import SMALL
from repro.geometry.slab import NO_HIT, slab_entry_matrix
from repro.scene.city import CityParams, generate_city
from repro.visibility.cells import CellGrid
from repro.visibility.dov import (CellVisibility, VisibilityTable,
                                  visibility_digest)
from repro.visibility.precompute import precompute_visibility
from repro.visibility.raycast import RayCastDoVEstimator

RESOLUTION = 8
SAMPLES = 16
#: The shape of ``benchmarks/perf/workloads.py::FULL_SCENE``.
LARGE_CITY = CityParams(blocks_x=12, blocks_y=12, seed=7,
                        bunnies_per_block=6, building_fraction=0.4,
                        min_height=20, max_height=90)
LARGE_CELL_SIZE = 60.0
LARGE_RESOLUTION = 16
OUTPUT = "BENCH_precompute.json"


def unculled_reference(scene, grid, resolution, samples):
    """One full (rays x boxes) float32 entry matrix per viewpoint, the
    nearest box per ray by ``argmin``, solid angles by ``bincount``, the
    per-cell max merged in numpy."""
    estimator = RayCastDoVEstimator(scene.packed_mbrs(),
                                    object_ids=scene.object_ids(),
                                    resolution=resolution)
    lo = estimator.boxes[:, 0:3].astype(np.float32)
    hi = estimator.boxes[:, 3:6].astype(np.float32)
    dirs = estimator.directions.astype(np.float32)
    rays = np.arange(len(dirs))
    table = VisibilityTable(grid.num_cells)
    for cell_id in grid.cell_ids():
        sums = []
        for viewpoint in grid.sample_viewpoints(cell_id, samples=samples):
            origin = np.asarray(viewpoint, dtype=np.float64).astype(np.float32)
            entry = slab_entry_matrix(origin, dirs, lo, hi)     # (r, b)
            owner = np.argmin(entry, axis=1)
            hit = entry[rays, owner] != NO_HIT
            sums.append(np.bincount(owner[hit],
                                    weights=estimator.solid_angles[hit],
                                    minlength=len(lo)))
        table.put(CellVisibility(
            cell_id, dov=estimator.region_dov_from_sums(np.array(sums))))
    return table


def timed(fn):
    start = time.perf_counter()
    table = fn()
    return table, time.perf_counter() - start


def measure(scene, grid, resolution, samples, workers):
    """Time the reference and the pipeline (once per entry of
    ``workers``); every digest must equal the reference's."""
    total_rays = grid.num_cells * samples * 6 * resolution ** 2

    def row(elapsed):
        return {"seconds": round(elapsed, 4),
                "cells_per_s": round(grid.num_cells / elapsed, 1),
                "rays_per_s": round(total_rays / elapsed, 0)}

    reference, reference_s = timed(lambda: unculled_reference(
        scene, grid, resolution, samples))
    digest = visibility_digest(reference)
    rows = {"unculled_reference": row(reference_s)}
    speedups = []
    for count in workers:
        table, elapsed = timed(lambda count=count: precompute_visibility(
            scene, grid, resolution=resolution, samples_per_cell=samples,
            workers=count))
        assert visibility_digest(table) == digest, count
        rows["batched" if count == 1
             else f"batched_workers{count}"] = row(elapsed)
        speedups.append(round(reference_s / elapsed, 2))
    return {"resolution": resolution, "samples_per_cell": samples,
            "cells": grid.num_cells, "boxes": len(scene),
            "rays_total": total_rays, **rows}, speedups


def test_precompute_speed(capsys):
    scene = generate_city(SMALL.city)
    grid = CellGrid.covering(scene.bounds(), SMALL.cell_size)
    report, (batched, parallel) = measure(scene, grid, RESOLUTION, SAMPLES,
                                          workers=(1, 2))
    report.update({"scale": "small", "cpu_count": os.cpu_count(),
                   "speedup_batched": batched,
                   "speedup_batched_workers2": parallel})

    scene = generate_city(LARGE_CITY)
    grid = CellGrid.covering(scene.bounds(), LARGE_CELL_SIZE)
    large, (culled,) = measure(scene, grid, LARGE_RESOLUTION, 1,
                               workers=(1,))
    large["speedup_culled"] = culled
    report["benchmark_scene"] = large

    with open(OUTPUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2, sort_keys=True))

    # Acceptance bar: on a one- or two-core box (this CI container) both
    # the batched and batched+workers configurations must clear 1.5x
    # over the unculled per-viewpoint reference — parallelism adds
    # little there, only the batching, the cull and the chunked kernel
    # can.  With >= 4 cores the parallel configuration must reach the
    # full 3x.  At the benchmark scene's size the cull alone must be
    # worth 2x (measured ~5x).
    assert report["speedup_batched"] >= 1.5
    assert report["speedup_batched_workers2"] >= 1.5
    if report["cpu_count"] >= 4:
        assert report["speedup_batched_workers2"] >= 3.0
    assert large["speedup_culled"] >= 2.0
