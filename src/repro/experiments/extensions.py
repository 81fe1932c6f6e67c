"""Extension experiments — features the paper proposes but defers.

* **Frustum-prioritized traversal** (the paper's future work, §3.2 and
  the conclusion): time-to-renderable vs total query time.
* **Node caching**: the paper deliberately caches no tree nodes; the
  buffer-pool sweep shows what each cache size would have saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

import numpy as np

from repro.core.priority import PrioritizedSearch
from repro.core.search import HDoVSearch
from repro.experiments.config import (ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_table
from repro.geometry.frustum import Camera
from repro.obs.replay import cold_queries
from repro.serving.pooled import PooledNodeStore
from repro.storage.buffer import BufferPool
from repro.walkthrough.session import street_viewpoints


@dataclass
class PriorityResult:
    num_queries: int
    avg_first_phase_ms: float
    avg_total_ms: float
    avg_in_frustum_results: float
    avg_total_results: float

    @property
    def response_speedup(self) -> float:
        if self.avg_first_phase_ms <= 0:
            return 1.0
        return self.avg_total_ms / self.avg_first_phase_ms

    def format_table(self) -> str:
        rows = [
            ["time to renderable (phase 1)",
             round(self.avg_first_phase_ms, 1),
             round(self.avg_in_frustum_results, 1)],
            ["full answer (both phases)", round(self.avg_total_ms, 1),
             round(self.avg_total_results, 1)],
        ]
        table = format_table(
            "Extension: frustum-prioritized traversal "
            f"({self.num_queries} queries)",
            ["phase", "avg simulated ms", "avg results"], rows)
        return (table + f"\nresponse-time speedup: "
                        f"{self.response_speedup:.2f}x")


def run_priority_extension(scale: ExperimentScale = MEDIUM, *,
                           eta: float = 0.001,
                           fov_deg: float = 70.0) -> PriorityResult:
    env = build_experiment_environment(scale)
    search = PrioritizedSearch(env)
    viewpoints = street_viewpoints(env.scene.bounds(), scale.city.pitch,
                                   scale.num_query_viewpoints, seed=17)
    rng = np.random.default_rng(23)
    cameras = []
    for point in viewpoints:
        angle = rng.uniform(0.0, 2 * np.pi)
        cameras.append(Camera(position=point,
                              direction=(float(np.cos(angle)),
                                         float(np.sin(angle)), 0.0),
                              up=(0, 0, 1), fov_deg=fov_deg, far=5000.0))
    results = cold_queries(env, cameras,
                           partial(search.query, eta=eta)).answers
    n = len(results)
    return PriorityResult(
        num_queries=n,
        avg_first_phase_ms=sum(r.first_phase_ms for r in results) / n,
        avg_total_ms=sum(r.total_ms for r in results) / n,
        avg_in_frustum_results=sum(r.in_frustum.num_results
                                   for r in results) / n,
        avg_total_results=sum(r.completed.num_results for r in results) / n,
    )


@dataclass
class NodeCacheResult:
    capacities: List[int]
    node_ios_per_query: List[float]
    hit_rates: List[float]

    def format_table(self) -> str:
        rows = [[c, round(io, 1), round(h, 2)]
                for c, io, h in zip(self.capacities,
                                    self.node_ios_per_query,
                                    self.hit_rates)]
        return format_table(
            "Extension: tree-node cache sweep (paper runs uncached)",
            ["cache pages", "node I/Os per query", "hit rate"], rows)


def run_node_cache_sweep(scale: ExperimentScale = MEDIUM, *,
                         capacities=(1, 4, 16, 64, 256),
                         eta: float = 0.001) -> NodeCacheResult:
    env = build_experiment_environment(scale)
    viewpoints = street_viewpoints(env.scene.bounds(), scale.city.pitch,
                                   scale.num_query_viewpoints, seed=29)
    ios: List[float] = []
    hit_rates: List[float] = []
    original_store = env.node_store
    try:
        for capacity in capacities:
            pool = BufferPool(capacity)
            env.node_store = PooledNodeStore(original_store, pool)
            search = HDoVSearch(env, fetch_models=False)
            cold_queries(env, viewpoints,
                         partial(search.query_point, eta=eta))
            # Light stats here include V-page reads; isolate node reads
            # via the pool's miss count.
            ios.append(pool.misses / len(viewpoints))
            hit_rates.append(pool.hit_rate)
    finally:
        env.node_store = original_store
    return NodeCacheResult(capacities=list(capacities),
                           node_ios_per_query=ios, hit_rates=hit_rates)
