"""Ablation studies — design choices the paper fixes but never varies.

* **NVO heuristic on/off** (eq. 4): without it, any entry with
  ``DoV <= eta`` terminates, which can retrieve internal LoDs holding
  more polygons than the visible objects they replace.
* **Scheme flip cost vs node count**: the vertical scheme flips in
  ``O(N_node)`` pages, the indexed-vertical in ``O(N_vnode)``; at small
  tree sizes both fit one page, so this micro-ablation scales synthetic
  node counts to expose the asymptotic difference (Section 4.3's
  argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Tuple

from repro.core.schemes.indexed_vertical import IndexedVerticalScheme
from repro.core.schemes.vertical import VerticalScheme
from repro.core.search import HDoVSearch
from repro.core.vpage import CellVPages
from repro.experiments.config import (ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_table
from repro.obs.replay import cold_queries
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile
from repro.walkthrough.session import street_viewpoints


@dataclass
class NVOHeuristicResult:
    eta: float
    with_heuristic: Tuple[float, float]      # (ms/query, polygons/query)
    without_heuristic: Tuple[float, float]

    def format_table(self) -> str:
        rows = [
            ["eq.4 heuristic ON", round(self.with_heuristic[0], 1),
             round(self.with_heuristic[1], 0)],
            ["eq.4 heuristic OFF", round(self.without_heuristic[0], 1),
             round(self.without_heuristic[1], 0)],
        ]
        return format_table(
            f"Ablation: NVO termination heuristic (eta={self.eta})",
            ["variant", "ms/query", "polygons/query"], rows)


def run_nvo_ablation(scale: ExperimentScale = MEDIUM, *,
                     eta: float = 0.008) -> NVOHeuristicResult:
    env = build_experiment_environment(scale)
    viewpoints = street_viewpoints(env.scene.bounds(), scale.city.pitch,
                                   scale.num_query_viewpoints, seed=3)
    results = []
    for use_heuristic in (True, False):
        search = HDoVSearch(env, use_nvo_heuristic=use_heuristic)
        run = cold_queries(env, viewpoints,
                           partial(search.query_point, eta=eta))
        results.append((run.ms_per_query(),
                        sum(r.total_polygons for r in run.answers)
                        / len(viewpoints)))
    return NVOHeuristicResult(eta=eta, with_heuristic=results[0],
                              without_heuristic=results[1])


@dataclass
class FlipScalingResult:
    node_counts: List[int]
    vertical_flip_ios: List[int]
    indexed_flip_ios: List[int]

    def format_table(self) -> str:
        rows = [[n, v, i] for n, v, i in zip(
            self.node_counts, self.vertical_flip_ios,
            self.indexed_flip_ios)]
        return format_table(
            "Ablation: cell-flip I/O vs tree size (synthetic, "
            "N_vnode = 40 per cell)",
            ["N_node", "vertical flip I/Os", "indexed-vertical flip I/Os"],
            rows)


def run_flip_scaling(node_counts=(512, 2048, 8192, 32768), *,
                     visible_per_cell: int = 40,
                     num_cells: int = 4) -> FlipScalingResult:
    """Synthetic micro-ablation: grow N_node with N_vnode fixed.

    Shows the vertical scheme's O(N_node) flip against the
    indexed-vertical's O(N_vnode) — the scalability argument of
    Section 4.3 that a small city cannot exhibit (its whole V-page-index
    segment fits one page).
    """
    vertical_ios: List[int] = []
    indexed_ios: List[int] = []
    for num_nodes in node_counts:
        cells = []
        for cid in range(num_cells):
            stride = max(num_nodes // visible_per_cell, 1)
            pages = {offset: [(0.5, 1)]
                     for offset in range(0, num_nodes, stride)}
            cells.append(CellVPages(cell_id=cid, pages=pages))

        stats = IOStats()
        disk = DiskModel()
        vpf = PagedFile("v", disk=disk, stats=stats)
        idx = PagedFile("i", disk=disk, stats=stats)
        vertical = VerticalScheme(vpf, idx)
        vertical.build(num_nodes, cells)
        stats.reset()
        vertical.flip_to_cell(1)
        vertical_ios.append(stats.reads)

        stats2 = IOStats()
        vpf2 = PagedFile("v2", disk=disk, stats=stats2)
        idx2 = PagedFile("i2", disk=disk, stats=stats2)
        indexed = IndexedVerticalScheme(vpf2, idx2)
        indexed.build(num_nodes, cells)
        stats2.reset()
        indexed.flip_to_cell(1)
        indexed_ios.append(stats2.reads)
    return FlipScalingResult(node_counts=list(node_counts),
                             vertical_flip_ios=vertical_ios,
                             indexed_flip_ios=indexed_ios)
