"""Figure 8 — disk I/O counts vs eta (indexed-vertical scheme).

(a) total disk I/Os per query, including the heavy-weight model data;
(b) light-weight I/Os only (tree nodes + V-pages + index segments),
    which for very small eta sit *above* the naive method (the extra
    internal nodes and V-pages) and fall as eta grows.

Both panels share one run; the naive method is the flat reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence

from repro.baselines.naive import NaiveCellList
from repro.core.search import HDoVSearch
from repro.experiments.config import (ETA_SWEEP, ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_series
from repro.obs.replay import cold_queries
from repro.walkthrough.session import street_viewpoints


@dataclass
class Figure8Result:
    etas: List[float]
    total_ios: List[float]
    light_ios: List[float]
    heavy_ios: List[float]
    naive_total: float
    naive_light: float
    num_queries: int

    def format_table(self) -> str:
        panel_a = format_series(
            "Figure 8(a): total disk I/Os per query (incl. model data)",
            "eta", self.etas,
            [("hdov", self.total_ios),
             ("naive", [self.naive_total] * len(self.etas))])
        panel_b = format_series(
            "Figure 8(b): light-weight I/Os per query (nodes + V-pages)",
            "eta", self.etas,
            [("hdov", self.light_ios),
             ("naive", [self.naive_light] * len(self.etas))])
        return panel_a + "\n\n" + panel_b


def run_figure8(scale: ExperimentScale = MEDIUM,
                etas: Sequence[float] = ETA_SWEEP) -> Figure8Result:
    env = build_experiment_environment(scale)
    viewpoints = street_viewpoints(env.scene.bounds(), scale.city.pitch,
                                   scale.num_query_viewpoints, seed=3)
    n = len(viewpoints)
    naive = NaiveCellList(env)

    def naive_answer(point):
        naive.reset_io_head()
        return naive.query_point(point)

    naive_run = cold_queries(env, viewpoints, naive_answer)
    search = HDoVSearch(env)
    runs = [cold_queries(env, viewpoints, partial(search.query_point, eta=eta))
            for eta in etas]
    light_ios = [run.light.total_ios / n for run in runs]
    heavy_ios = [run.heavy.total_ios / n for run in runs]
    return Figure8Result(etas=list(etas),
                         total_ios=[light + heavy for light, heavy
                                    in zip(light_ios, heavy_ios)],
                         light_ios=light_ios, heavy_ios=heavy_ios,
                         naive_total=naive_run.ios_per_query(),
                         naive_light=naive_run.light.total_ios / n,
                         num_queries=n)
