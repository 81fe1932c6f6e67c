"""Batched/parallel precompute: the determinism contract.

The pipeline promises that the resulting table is *bit-identical* —
compared via :func:`repro.visibility.dov.visibility_digest` — across
the seed per-viewpoint path, the batched kernel at any batch size and
any worker count.  These tests are the contract's enforcement alongside
the CI determinism gate.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import VisibilityError
from repro.geometry import slab
from repro.geometry.slab import NO_HIT, slab_entry_matrix
from repro.obs.metrics import use_registry
from repro.obs.trace import use_tracer
from repro.scene.city import CityParams, generate_city
from repro.visibility import precompute
from repro.visibility.cells import CellGrid
from repro.visibility.dov import (CellVisibility, VisibilityTable,
                                  visibility_digest)
from repro.visibility.precompute import precompute_visibility
from repro.visibility.raycast import RayCastDoVEstimator

RESOLUTION = 8
SAMPLES = 3


def seed_path_table(scene, grid, *, resolution=RESOLUTION, samples=SAMPLES):
    """The seed implementation: per-viewpoint casts merged through dicts."""
    estimator = RayCastDoVEstimator(scene.packed_mbrs(),
                                    object_ids=scene.object_ids(),
                                    resolution=resolution)
    table = VisibilityTable(grid.num_cells)
    for cell_id in grid.cell_ids():
        viewpoints = grid.sample_viewpoints(cell_id, samples=samples)
        merged = {}
        for viewpoint in viewpoints:
            for oid, value in estimator.dov_from_viewpoint(
                    viewpoint).items():
                if value > merged.get(oid, 0.0):
                    merged[oid] = value
        cell = CellVisibility(cell_id)
        for oid, value in merged.items():
            cell.set(oid, value)
        table.put(cell)
    return table


@pytest.fixture(scope="module")
def seed_digest(small_scene, small_grid):
    return visibility_digest(seed_path_table(small_scene, small_grid))


def test_batched_matches_seed_path_to_the_bit(small_scene, small_grid,
                                              seed_digest, monkeypatch):
    for size in (1, 4, 64):
        monkeypatch.setattr(precompute, "BATCH_CELLS", size)
        table = precompute_visibility(small_scene, small_grid,
                                      resolution=RESOLUTION,
                                      samples_per_cell=SAMPLES)
        assert visibility_digest(table) == seed_digest


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_matches_seed_path_to_the_bit(small_scene, small_grid,
                                               seed_digest, workers,
                                               monkeypatch):
    """Batches are cut in the calling process, so patching the batch
    size reaches the worker path too."""
    monkeypatch.setattr(precompute, "BATCH_CELLS", 4)
    table = precompute_visibility(small_scene, small_grid,
                                  resolution=RESOLUTION,
                                  samples_per_cell=SAMPLES,
                                  workers=workers)
    assert visibility_digest(table) == seed_digest


def unculled_reference_table(scene, grid, *, resolution, samples):
    """The table from the full every-ray-every-box float32 entry matrix
    (``slab_entry_matrix`` -> ``argmin`` -> ``bincount``), one viewpoint
    at a time.  Shares only the ray grid and the per-pair slab arithmetic
    with the pipeline: no nearest-hit kernel, no cull, no batching."""
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


@pytest.mark.parametrize("samples", [1, 4])
def test_pipeline_matches_unculled_reference(small_scene, small_grid,
                                             samples, monkeypatch):
    """Independent-reference parity: every other parity test compares
    the nearest-hit kernel with itself."""
    expected = visibility_digest(unculled_reference_table(
        small_scene, small_grid, resolution=RESOLUTION, samples=samples))
    for size in (1, 3, 16):
        monkeypatch.setattr(precompute, "BATCH_CELLS", size)
        for workers in (1, 2):
            table = precompute_visibility(small_scene, small_grid,
                                          resolution=RESOLUTION,
                                          samples_per_cell=samples,
                                          workers=workers)
            assert visibility_digest(table) == expected, (size, workers)


def test_octant_cull_skips_most_slab_tests(monkeypatch):
    """A count, not a timing: the (ray, box) pairs the kernel actually
    evaluates over one precompute are a fraction of rays x boxes (0.28
    here; 0.26 on the benchmark's 12x12 scene).  The scene is large
    enough that a kernel chunk holds two viewpoints, not the whole city
    as it does for ``small_scene``, where the block bounds cull little."""
    scene = generate_city(CityParams(blocks_x=8, blocks_y=8, seed=7,
                                     bunnies_per_block=6,
                                     building_fraction=0.4, min_height=20,
                                     max_height=90, bunny_subdivisions=1))
    grid = CellGrid.covering(scene.bounds(), cell_size=60.0)
    resolution = 16
    evaluated = 0
    kernel = slab.slab_entry_exit_group

    def counting(origins, dirs, lo, hi, scratch=None):
        nonlocal evaluated
        evaluated += len(origins) * len(dirs) * len(lo)
        return kernel(origins, dirs, lo, hi, scratch)

    monkeypatch.setattr(slab, "slab_entry_exit_group", counting)
    # One process: a forked worker's count never reaches this one.
    precompute_visibility(scene, grid, resolution=resolution, workers=1)
    full = grid.num_cells * 6 * resolution ** 2 * len(scene)
    assert 0 < evaluated <= 0.4 * full


def test_distance_cull_skips_most_of_the_rest(monkeypatch):
    """The same count on the same 8x8 scene with the distance cull on
    top of the octant cull: 0.090 of rays x boxes measured (0.046 on the
    benchmark's 12x12 scene, where the octant cull alone leaves 0.26).
    Most rays stop after their first band of boxes, or leave the box of
    all boxes before reaching the next one."""
    scene = generate_city(CityParams(blocks_x=8, blocks_y=8, seed=7,
                                     bunnies_per_block=6,
                                     building_fraction=0.4, min_height=20,
                                     max_height=90, bunny_subdivisions=1))
    grid = CellGrid.covering(scene.bounds(), cell_size=60.0)
    resolution = 16
    evaluated = 0
    kernel = slab.slab_entry_exit_group

    def counting(origins, dirs, lo, hi, scratch=None):
        nonlocal evaluated
        evaluated += len(origins) * len(dirs) * len(lo)
        return kernel(origins, dirs, lo, hi, scratch)

    monkeypatch.setattr(slab, "slab_entry_exit_group", counting)
    # One process: a forked worker's count never reaches this one.
    precompute_visibility(scene, grid, resolution=resolution, workers=1)
    full = grid.num_cells * 6 * resolution ** 2 * len(scene)
    assert 0 < evaluated <= 0.11 * full


#: The shape of ``benchmarks/perf/workloads.py::FULL_SCENE`` (also
#: ``benchmarks/test_precompute_speed.py::LARGE_CITY``).
LARGE_CITY = CityParams(blocks_x=12, blocks_y=12, seed=7,
                        bunnies_per_block=6, building_fraction=0.4,
                        min_height=20, max_height=90)


def test_benchmark_scene_table_is_pinned():
    """The benchmark scene's table (576 cells, 609 boxes, resolution 16,
    one sample) is the one every cull so far has left unchanged, at the
    default worker count and in one process."""
    scene = generate_city(LARGE_CITY)
    grid = CellGrid.covering(scene.bounds(), cell_size=60.0)
    for workers in (None, 1):
        table = precompute_visibility(scene, grid, resolution=16,
                                      workers=workers)
        assert visibility_digest(table) == (
            "8d3b4c87b33b660918c55c1145876555"
            "f54c3fd8e06f75120fc7ded010a6f5e0"), workers


def test_worker_count_default_cap_and_no_fork(monkeypatch):
    """One process per usable CPU, never more than there are batches;
    without the ``fork`` start method the default is one process and an
    explicit count above one is refused."""
    assert precompute.worker_count(None, 576) == min(
        len(os.sched_getaffinity(0)), 36)
    assert precompute.worker_count(8, 33) == 3
    assert precompute.worker_count(None, 1) == 1
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert precompute.worker_count(None, 576) == 1
    with pytest.raises(VisibilityError):
        precompute.worker_count(2, 576)


@pytest.mark.parametrize("cell, fault, message", [
    pytest.param(4, "raise", "cell 4 is cursed", id="child-raises"),
    pytest.param(4, "exit", "without its results", id="child-dies"),
    pytest.param(0, "raise", "cell 0 is cursed", id="parent-raises"),
])
def test_worker_failure_raises_and_leaves_no_child(small_scene, small_grid,
                                                   cell, fault, message,
                                                   monkeypatch):
    """A batch that fails in share 1 (batches 1, 3, ... of 2 workers:
    the fork inherits the patch) or in this process's share 0 fails the
    call with a VisibilityError, and no child is left alive."""
    monkeypatch.setattr(precompute, "BATCH_CELLS", 4)
    compute = precompute.compute_cell_batch

    def failing(estimator, grid, cell_ids, samples_per_cell):
        if cell in cell_ids:
            if fault == "exit":
                os._exit(3)
            raise ValueError(f"cell {cell} is cursed")
        return compute(estimator, grid, cell_ids, samples_per_cell)

    monkeypatch.setattr(precompute, "compute_cell_batch", failing)
    with pytest.raises(VisibilityError, match=message):
        precompute_visibility(small_scene, small_grid, resolution=RESOLUTION,
                              workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_books_are_the_same_for_any_worker_count(small_scene, small_grid,
                                                 workers, monkeypatch):
    """Every batch is booked in this process: one ``precompute_batch``
    span per batch and full counters, whichever process computed it."""
    monkeypatch.setattr(precompute, "BATCH_CELLS", 4)
    batches = -(-small_grid.num_cells // 4)
    with use_registry() as registry, use_tracer() as tracer:
        precompute_visibility(small_scene, small_grid, resolution=RESOLUTION,
                              samples_per_cell=SAMPLES, workers=workers)
        assert registry.value("precompute_cells_total") == \
            small_grid.num_cells
        assert registry.value("precompute_rays_total") == \
            small_grid.num_cells * SAMPLES * 6 * RESOLUTION ** 2
    assert tracer.summarize()["precompute_batch"]["count"] == batches
    assert multiprocessing.active_children() == []


def test_region_dov_batched_equals_pointwise(small_scene, small_grid):
    estimator = RayCastDoVEstimator(small_scene.packed_mbrs(),
                                    object_ids=small_scene.object_ids(),
                                    resolution=RESOLUTION)
    viewpoints = small_grid.sample_viewpoints(0, samples=5)
    batched = estimator.dov_from_region(viewpoints)
    pointwise = estimator._dov_from_region_pointwise(viewpoints)
    assert batched == pointwise                 # bit equality, not approx


def test_duplicate_object_ids_take_pointwise_path():
    boxes = np.array([[5.0, -1, -1, 6, 1, 1], [8.0, -1, -1, 9, 1, 1]])
    estimator = RayCastDoVEstimator(boxes, object_ids=[7, 7], resolution=8)
    assert not estimator._unique_ids
    region = estimator.dov_from_region([(0.0, 0.0, 0.0)])
    assert region == estimator._dov_from_region_pointwise([(0.0, 0.0, 0.0)])


def test_progress_callback_reaches_total(small_scene, small_grid,
                                        monkeypatch):
    monkeypatch.setattr(precompute, "BATCH_CELLS", 2)
    seen = []
    precompute_visibility(small_scene, small_grid, resolution=RESOLUTION,
                          progress=lambda done, total: seen.append(
                              (done, total)))
    assert seen[0][0] == 0
    assert seen[-1] == (small_grid.num_cells, small_grid.num_cells)
    assert [d for d, _t in seen] == sorted(d for d, _t in seen)


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_moves_before_the_last_batch_is_computed(
        small_scene, small_grid, workers, monkeypatch):
    """A batch is booked as soon as it and every batch before it are in,
    so a progress call with ``0 < done < total`` comes before this
    process computes its last batch — and the calls are the same at any
    worker count."""
    monkeypatch.setattr(precompute, "BATCH_CELLS", 4)
    compute = precompute.compute_cell_batch
    events = []

    def counted(estimator, grid, cell_ids, samples_per_cell):
        events.append(("compute", cell_ids[0]))
        return compute(estimator, grid, cell_ids, samples_per_cell)

    monkeypatch.setattr(precompute, "compute_cell_batch", counted)
    total = small_grid.num_cells
    precompute_visibility(small_scene, small_grid, resolution=RESOLUTION,
                          workers=workers,
                          progress=lambda done, total: events.append(
                              ("progress", done)))
    computed = [i for i, (kind, _) in enumerate(events) if kind == "compute"]
    assert len(computed) == -(-total // 4 // workers) > 1
    assert any(kind == "progress" and 0 < done < total
               for kind, done in events[:computed[-1]])
    assert [done for kind, done in events if kind == "progress"] == \
        [min(4 * batch, total) for batch in range(-(-total // 4) + 1)]
    assert multiprocessing.active_children() == []


def test_precompute_counters(small_scene, small_grid):
    with use_registry() as registry:
        precompute_visibility(small_scene, small_grid,
                              resolution=RESOLUTION)
        assert registry.value("precompute_cells_total") == \
            small_grid.num_cells
        assert registry.value("precompute_rays_total") == \
            small_grid.num_cells * 6 * RESOLUTION ** 2
