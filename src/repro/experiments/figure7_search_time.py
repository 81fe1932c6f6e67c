"""Figure 7 — search time with different eta values.

Paper setup: 10,000 visibility queries at random viewpoints from the
precomputed cells; series for the three HDoV storage schemes plus the
naive (cell, list-of-objects) method as a flat reference line.

Expected shape: all HDoV schemes fall as eta grows; eta = 0 close to the
naive line; horizontal worst (its V-pages for one cell are scattered c
pages apart, so nearly every access seeks); indexed-vertical at least as
good as vertical (cheaper cell flips).

Each query runs from cold (:func:`~repro.obs.replay.cold_queries`), so
every query pays its own flip, like the paper's random-viewpoint stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence

from repro.baselines.naive import NaiveCellList
from repro.core.search import HDoVSearch
from repro.experiments.config import (ETA_SWEEP, ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_series
from repro.obs.replay import cold_queries
from repro.walkthrough.session import street_viewpoints

SCHEMES = ("horizontal", "vertical", "indexed-vertical")


@dataclass
class Figure7Result:
    etas: List[float]
    #: scheme name -> avg simulated search ms per query, per eta.
    search_ms: Dict[str, List[float]]
    naive_ms: float
    num_queries: int

    def format_table(self) -> str:
        series = [(name, self.search_ms[name]) for name in SCHEMES]
        series.append(("naive", [self.naive_ms] * len(self.etas)))
        return format_series(
            f"Figure 7: search time vs eta ({self.num_queries} queries, "
            "avg simulated ms/query)",
            "eta", self.etas, series)


def run_figure7(scale: ExperimentScale = MEDIUM,
                etas: Sequence[float] = ETA_SWEEP) -> Figure7Result:
    env = build_experiment_environment(scale, schemes=SCHEMES)
    viewpoints = street_viewpoints(env.scene.bounds(), scale.city.pitch,
                                   scale.num_query_viewpoints, seed=3)
    naive = NaiveCellList(env)

    def naive_answer(point):
        naive.reset_io_head()
        return naive.query_point(point)

    naive_ms = cold_queries(env, viewpoints, naive_answer).ms_per_query()
    search_ms: Dict[str, List[float]] = {}
    for name in SCHEMES:
        search = HDoVSearch(env, name)
        search_ms[name] = [
            cold_queries(env, viewpoints,
                         partial(search.query_point, eta=eta)).ms_per_query()
            for eta in etas]
    return Figure7Result(etas=list(etas), search_ms=search_ms,
                         naive_ms=naive_ms, num_queries=len(viewpoints))
