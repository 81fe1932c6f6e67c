"""Figure 9 — scalability of the visibility query over dataset sizes.

Paper setup: datasets from 400 MB to 1.6 GB; 1000 random viewpoints; the
reported cost is "only the cost to traverse the HDoV-tree, and excludes
the cost to retrieve the objects (since all visible objects must be
retrieved)".

(a) average search time per query vs dataset size — near-flat;
(b) average I/Os per query vs dataset size — grows only marginally.

Our datasets scale object counts 1x..4x with the nominal sizes (see
``repro.scene.datasets``); the cost drivers the figure measures (tree
height, visible-node counts) scale with object count, which is
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence

from repro.core.hdov_tree import HDoVConfig, build_environment
from repro.core.search import HDoVSearch
from repro.errors import ExperimentError
from repro.experiments.report import format_series
from repro.obs.replay import cold_queries
from repro.scene.datasets import DATASET_SERIES, DatasetSpec
from repro.visibility.cells import CellGrid
from repro.walkthrough.session import street_viewpoints


@dataclass
class Figure9Result:
    names: List[str]
    nominal_mb: List[int]
    num_objects: List[int]
    num_nodes: List[int]
    search_ms: List[float]
    ios: List[float]
    eta: float
    num_queries: int

    def format_table(self) -> str:
        panel_a = format_series(
            f"Figure 9(a): avg traversal time vs dataset size "
            f"(eta={self.eta}, {self.num_queries} queries, model fetch "
            "excluded)",
            "dataset MB", [float(m) for m in self.nominal_mb],
            [("search ms", self.search_ms),
             ("objects", [float(n) for n in self.num_objects]),
             ("nodes", [float(n) for n in self.num_nodes])])
        panel_b = format_series(
            "Figure 9(b): avg I/Os vs dataset size",
            "dataset MB", [float(m) for m in self.nominal_mb],
            [("I/Os", self.ios)])
        return panel_a + "\n\n" + panel_b


def run_figure9(specs: Sequence[DatasetSpec] = DATASET_SERIES, *,
                eta: float = 0.001, num_queries: int = 40,
                cell_size: float = 90.0,
                dov_resolution: int = 16) -> Figure9Result:
    """Build each dataset of the series and measure traversal-only cost."""
    if not specs:
        raise ExperimentError("no dataset specs")
    names: List[str] = []
    nominal: List[int] = []
    objects: List[int] = []
    nodes: List[int] = []
    times: List[float] = []
    ios: List[float] = []
    for spec in specs:
        scene = spec.build()
        grid = CellGrid.covering(scene.bounds(), cell_size)
        env = build_environment(
            scene, grid, HDoVConfig(dov_resolution=dov_resolution))
        search = HDoVSearch(env, fetch_models=False)
        pitch = spec.params().pitch
        viewpoints = street_viewpoints(scene.bounds(), pitch, num_queries,
                                       seed=5)
        run = cold_queries(env, viewpoints,
                           partial(search.query_point, eta=eta))
        names.append(spec.name)
        nominal.append(spec.nominal_mb)
        objects.append(len(scene))
        nodes.append(env.node_store.num_nodes)
        times.append(run.ms_per_query())
        ios.append(run.ios_per_query())
    return Figure9Result(names=names, nominal_mb=nominal,
                         num_objects=objects, num_nodes=nodes,
                         search_ms=times, ios=ios, eta=eta,
                         num_queries=num_queries)
