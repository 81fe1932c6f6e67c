"""Extension experiments and the node store behind a private pool."""

import pytest

from repro.core.search import HDoVSearch
from repro.experiments.config import SMALL
from repro.experiments.extensions import (run_node_cache_sweep,
                                          run_priority_extension)
from repro.serving.pooled import PooledNodeStore
from repro.storage.buffer import BufferPool


def test_cached_node_store_matches_plain(env):
    cached = PooledNodeStore(env.node_store, BufferPool(16))
    for offset in range(env.node_store.num_nodes):
        plain = env.node_store.read_node(offset)
        via_cache = cached.read_node(offset)
        assert via_cache.node_offset == plain.node_offset
        assert via_cache.level == plain.level
        assert len(via_cache.entries) == len(plain.entries)


def test_cached_node_store_saves_io(env):
    cached = PooledNodeStore(env.node_store, BufferPool(64))
    env.reset_stats()
    cached.read_node(0)
    first = env.light_stats.reads
    cached.read_node(0)
    assert env.light_stats.reads == first     # hit: no disk charge
    assert cached.pool.hit_rate > 0


def test_cached_search_equivalent(env):
    plain = HDoVSearch(env, "indexed-vertical", fetch_models=False)
    busiest = max(env.grid.cell_ids(),
                  key=lambda c: env.visibility.cell(c).num_visible)
    expected = plain.query_cell(busiest, 0.0)

    original = env.node_store
    try:
        env.node_store = PooledNodeStore(original, BufferPool(64))
        cached_search = HDoVSearch(env, "indexed-vertical",
                                   fetch_models=False)
        result = cached_search.query_cell(busiest, 0.0)
    finally:
        env.node_store = original
    assert result.object_ids() == expected.object_ids()


def test_priority_extension_small():
    result = run_priority_extension(SMALL, eta=0.002)
    assert result.avg_first_phase_ms <= result.avg_total_ms + 1e-9
    assert result.avg_in_frustum_results <= result.avg_total_results
    assert result.response_speedup >= 1.0
    assert "frustum-prioritized" in result.format_table()


def test_node_cache_sweep_small():
    result = run_node_cache_sweep(SMALL, capacities=(1, 64))
    # A big cache strictly reduces node misses vs a 1-page cache.
    assert result.node_ios_per_query[-1] <= result.node_ios_per_query[0]
    assert result.hit_rates[-1] >= result.hit_rates[0]
    assert "cache sweep" in result.format_table()
