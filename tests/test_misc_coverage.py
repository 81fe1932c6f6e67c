"""Remaining small-surface coverage: city geometry properties, the free
disk, search-result helpers."""

import pytest

from repro.core.search import RetrievedInternal, RetrievedObject, SearchResult
from repro.scene.city import CityParams
from repro.storage.disk import FREE_DISK


def test_city_params_geometry():
    params = CityParams(blocks_x=4, blocks_y=3)
    assert params.pitch == 120.0
    assert params.width == 480.0
    assert params.depth == 360.0


def test_free_disk_charges_nothing():
    from repro.storage.disk import IOStats
    from repro.storage.pagedfile import PagedFile
    stats = IOStats()
    pf = PagedFile("free", page_size=100, disk=FREE_DISK, stats=stats)
    pf.allocate()
    pf.read_page(0)                    # a seek
    assert stats.simulated_ms == 0.0
    assert stats.reads == 1


def test_search_result_helpers():
    result = SearchResult(cell_id=0, eta=0.01)
    result.objects.append(RetrievedObject(
        object_id=4, dov=0.1, fraction=0.2, polygons=100, bytes=4000,
        blob_id=9))
    result.internals.append(RetrievedInternal(
        node_offset=2, dov=0.005, fraction=0.5, polygons=50, bytes=2000,
        covered_objects=(7, 8), blob_id=3))
    assert result.total_polygons == 150
    assert result.total_model_bytes == 6000
    assert result.num_results == 2
    assert result.object_ids() == [4]
    assert result.covered_object_ids() == [4, 7, 8]


def test_object_record_fraction_bytes(env):
    oid = env.scene.object_ids()[0]
    record = env.objects[oid]
    full = record.bytes_for_fraction(1.0)
    coarse = record.bytes_for_fraction(0.0)
    assert coarse <= full
    assert record.bytes_for_fraction(0.5) == pytest.approx(
        (full + coarse) / 2, abs=env.config.page_size)


def test_environment_totals(env):
    env.reset_stats()
    assert env.total_ios() == 0
    assert env.total_simulated_ms() == 0.0
    env.node_store.read_node(0)
    assert env.total_ios() == 1
    assert env.total_simulated_ms() > 0.0
