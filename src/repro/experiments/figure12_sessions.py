"""Figure 12 — search performance across walkthrough motion patterns.

Paper setup: three recorded sessions (normal / turning / back-forward)
replayed on VISUAL and REVIEW.

(a) average search time per query; (b) average number of I/Os per query.
"Queries in the VISUAL walkthrough are much faster than the spatial
queries in the REVIEW system."

Averages are over *query-issuing* frames (frames that hit the database),
matching the paper's "search time in each query".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.config import (ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_table
from repro.obs.replay import replay, session_path
from repro.walkthrough.visual import ReviewWalkthrough

SESSION_NUMBERS = (1, 2, 3)
SESSION_LABELS = {1: "session 1 (normal)", 2: "session 2 (turning)",
                  3: "session 3 (back/forward)"}


@dataclass
class Figure12Result:
    eta: float
    review_box: float
    #: session number -> (visual_ms, review_ms)
    search_ms: Dict[int, List[float]]
    #: session number -> (visual_ios, review_ios)
    ios: Dict[int, List[float]]

    def format_table(self) -> str:
        rows_a = [[SESSION_LABELS[n], round(self.search_ms[n][0], 2),
                   round(self.search_ms[n][1], 2)]
                  for n in SESSION_NUMBERS]
        panel_a = format_table(
            f"Figure 12(a): avg search time per query (VISUAL eta="
            f"{self.eta} vs REVIEW {self.review_box:g}m)",
            ["session", "VISUAL ms", "REVIEW ms"], rows_a)
        rows_b = [[SESSION_LABELS[n], round(self.ios[n][0], 1),
                   round(self.ios[n][1], 1)] for n in SESSION_NUMBERS]
        panel_b = format_table(
            "Figure 12(b): avg I/Os per query",
            ["session", "VISUAL", "REVIEW"], rows_b)
        return panel_a + "\n\n" + panel_b


def run_figure12(scale: ExperimentScale = MEDIUM, *,
                 eta: float = 0.001,
                 review_box: float = 400.0) -> Figure12Result:
    env = build_experiment_environment(scale)
    search_ms: Dict[int, List[float]] = {}
    ios: Dict[int, List[float]] = {}
    for number in SESSION_NUMBERS:
        session = session_path(scale, env, number)
        _, visual_report = replay(scale, env, session, eta=eta)
        review = ReviewWalkthrough(env, box_size=review_box,
                                   evaluate_fidelity=False)
        review_report = review.run(session)
        search_ms[number] = [visual_report.avg_query_search_ms(),
                             review_report.avg_query_search_ms()]
        ios[number] = [visual_report.avg_query_ios(),
                       review_report.avg_query_ios()]
    return Figure12Result(eta=eta, review_box=review_box,
                          search_ms=search_ms, ios=ios)
