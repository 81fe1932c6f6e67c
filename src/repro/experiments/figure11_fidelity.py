"""Figure 11 — visual fidelity comparison, quantified.

The paper shows screenshots: (a) original models, (b) REVIEW with 200 m
query boxes losing far objects, (c) VISUAL at eta = 0.001 with fidelity
"very good".  We quantify the same comparison over a set of still
viewpoints: the DoV-weighted fidelity score (see
``repro.walkthrough.metrics``) and the count of visible objects missed
entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List

from repro.baselines.review import ReviewSystem
from repro.core.search import HDoVSearch
from repro.experiments.config import (ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_table
from repro.obs.replay import cold_queries
from repro.walkthrough.metrics import FidelityMetric
from repro.walkthrough.session import street_viewpoints


@dataclass
class Figure11Row:
    system: str
    avg_fidelity: float
    avg_missed_objects: float
    avg_visible_objects: float


@dataclass
class Figure11Result:
    rows: List[Figure11Row]
    num_viewpoints: int

    def format_table(self) -> str:
        table_rows = [[r.system, round(r.avg_fidelity, 3),
                       round(r.avg_missed_objects, 1),
                       round(r.avg_visible_objects, 1)] for r in self.rows]
        return format_table(
            f"Figure 11: visual fidelity over {self.num_viewpoints} "
            "still viewpoints",
            ["system", "fidelity", "missed objects", "visible objects"],
            table_rows)


def run_figure11(scale: ExperimentScale = MEDIUM, *,
                 eta: float = 0.001,
                 review_box: float = 200.0) -> Figure11Result:
    env = build_experiment_environment(scale)
    metric = FidelityMetric(env)
    viewpoints = street_viewpoints(env.scene.bounds(), scale.city.pitch,
                                   scale.num_query_viewpoints, seed=11)

    search = HDoVSearch(env, fetch_models=False)
    review = ReviewSystem(env, box_size=review_box, fetch_models=False)

    def review_answer(point):
        review.clear_cache()
        return review.query(point)

    review_answers = cold_queries(env, viewpoints, review_answer).answers
    visual_answers = cold_queries(
        env, viewpoints, partial(search.query_point, eta=eta)).answers

    rows: Dict[str, List[float]] = {"review": [], "visual": []}
    missed: Dict[str, List[float]] = {"review": [], "visual": []}
    visible_counts: List[float] = []
    for point, review_result, visual_result in zip(
            viewpoints, review_answers, visual_answers):
        cell_id = env.grid.cell_of_point(point)
        visible_counts.append(float(len(metric.ground_truth(cell_id))))

        rendered = {}
        for oid in review_result.object_ids:
            record = env.objects[oid]
            distance = record.chain.finest.aabb().min_distance_to_point(point)
            fraction = review.lod_fraction_at(distance)
            rendered[oid] = record.chain.interpolated_polygons(fraction)
        rows["review"].append(metric.score_rendered(cell_id, rendered))
        missed["review"].append(
            float(len(metric.missed_objects(cell_id,
                                            review_result.object_ids))))

        rows["visual"].append(metric.score_hdov(visual_result))
        missed["visual"].append(
            float(len(metric.missed_objects(
                cell_id, visual_result.covered_object_ids()))))

    def avg(values: List[float]) -> float:
        return sum(values) / len(values)

    result_rows = [
        # "Original models": every visible object at full detail — the
        # reference row, fidelity 1 by construction, zero missed.
        Figure11Row("original models", 1.0, 0.0, avg(visible_counts)),
        Figure11Row(f"REVIEW({review_box:g}m boxes)", avg(rows["review"]),
                    avg(missed["review"]), avg(visible_counts)),
        Figure11Row(f"VISUAL(eta={eta})", avg(rows["visual"]),
                    avg(missed["visual"]), avg(visible_counts)),
    ]
    return Figure11Result(rows=result_rows, num_viewpoints=len(viewpoints))
