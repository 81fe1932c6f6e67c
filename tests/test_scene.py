"""Scene objects, city generator, dataset series."""

import numpy as np
import pytest

from repro.errors import ExperimentError, GeometryError
from repro.geometry.primitives import bunny_blob, tower_mesh
from repro.scene.city import (BLOCK_SIZE, LOD_LEVELS, CityParams,
                              generate_city)
from repro.scene.datasets import DATASET_SERIES, build_dataset
from repro.scene.objects import Scene, SceneObject
from repro.simplify.lod_chain import build_lod_chain


# -- primitives used by the generator ----------------------------------------

def test_tower_mesh_tiers():
    tower = tower_mesh((0, 0, 0), (10, 10), height=30.0, tiers=3)
    assert tower.num_faces == 36
    box = tower.aabb()
    assert box.lo[2] == pytest.approx(0.0)
    assert box.hi[2] == pytest.approx(30.0)
    with pytest.raises(GeometryError):
        tower_mesh((0, 0, 0), (10, 10), height=0.0)
    with pytest.raises(GeometryError):
        tower_mesh((0, 0, 0), (10, 10), height=10.0, tiers=0)


def test_bunny_blob_deterministic_and_bounded():
    a = bunny_blob(radius=2.0, subdivisions=2, seed=9)
    b = bunny_blob(radius=2.0, subdivisions=2, seed=9)
    assert np.allclose(a.vertices, b.vertices)
    c = bunny_blob(radius=2.0, subdivisions=2, seed=10)
    assert not np.allclose(a.vertices, c.vertices)
    radii = np.linalg.norm(a.vertices, axis=1)
    assert radii.max() <= 2.0 * 1.3
    assert radii.min() >= 2.0 * 0.5
    with pytest.raises(GeometryError):
        bunny_blob(bumpiness=1.5)


# -- Scene --------------------------------------------------------------------

def make_object(oid, center=(0, 0, 0)):
    mesh = bunny_blob(radius=1.0, subdivisions=1, seed=oid, center=center)
    return SceneObject(oid, build_lod_chain(mesh, num_levels=2,
                                            reduction=0.5))


def test_scene_add_get_iter():
    scene = Scene([make_object(0), make_object(1, (10, 0, 0))])
    assert len(scene) == 2
    assert scene.get(1).object_id == 1
    assert 0 in scene and 5 not in scene
    assert scene.object_ids() == [0, 1]


def test_scene_duplicate_id_rejected():
    scene = Scene([make_object(0)])
    with pytest.raises(GeometryError):
        scene.add(make_object(0))


def test_scene_unknown_id():
    with pytest.raises(GeometryError):
        Scene().get(3)


def test_scene_bounds_and_packed():
    scene = Scene([make_object(0), make_object(1, (50, 0, 0))])
    bounds = scene.bounds()
    assert bounds.contains(scene.get(0).mbr)
    assert bounds.contains(scene.get(1).mbr)
    packed = scene.packed_mbrs()
    assert packed.shape == (2, 6)
    with pytest.raises(GeometryError):
        Scene().bounds()


def test_scene_totals():
    scene = Scene([make_object(0)])
    obj = scene.get(0)
    assert scene.total_polygons() == obj.num_polygons
    assert scene.total_bytes() == obj.byte_size
    assert obj.byte_size == sum(obj.lods.byte_sizes())


# -- city generator ---------------------------------------------------------

def test_city_deterministic():
    params = CityParams(blocks_x=4, blocks_y=4, seed=3)
    a = generate_city(params)
    b = generate_city(params)
    assert a.object_ids() == b.object_ids()
    assert a.total_polygons() == b.total_polygons()


def test_city_object_mix():
    scene = generate_city(CityParams(blocks_x=6, blocks_y=6, seed=1,
                                     building_fraction=0.5))
    categories = {o.category for o in scene}
    assert categories == {"building", "bunny"}


def test_city_objects_within_footprint():
    params = CityParams(blocks_x=4, blocks_y=4, seed=2)
    scene = generate_city(params)
    for obj in scene:
        box = obj.mbr
        assert box.lo[0] >= -BLOCK_SIZE
        assert box.hi[0] <= params.width + BLOCK_SIZE
        assert box.lo[2] >= -1.0


def test_city_extreme_fractions():
    all_buildings = generate_city(CityParams(blocks_x=3, blocks_y=3,
                                             seed=1, building_fraction=1.0))
    assert all(o.category == "building" for o in all_buildings)
    all_bunnies = generate_city(CityParams(blocks_x=3, blocks_y=3, seed=1,
                                           building_fraction=0.0))
    assert all(o.category == "bunny" for o in all_bunnies)


def test_city_params_validation():
    with pytest.raises(GeometryError):
        CityParams(blocks_x=0)
    with pytest.raises(GeometryError):
        CityParams(building_fraction=1.5)
    with pytest.raises(GeometryError):
        CityParams(min_height=50.0, max_height=10.0)


def test_city_lod_levels_propagate():
    scene = generate_city(CityParams(blocks_x=3, blocks_y=3, seed=1))
    assert all(o.lods.num_levels == LOD_LEVELS for o in scene)


# -- dataset series ------------------------------------------------------------

def test_dataset_series_object_counts_scale():
    # Build only the grid sizes (not the scenes) to keep the test fast.
    areas = [spec.blocks_x * spec.blocks_y for spec in DATASET_SERIES]
    assert areas == sorted(areas)
    nominals = [spec.nominal_mb for spec in DATASET_SERIES]
    assert nominals == [400, 800, 1200, 1600]


def test_build_dataset_by_name():
    scene = build_dataset("city-400MB")
    assert len(scene) > 0
    with pytest.raises(ExperimentError):
        build_dataset("city-9000MB")
