"""Three-way baseline comparison across motion patterns.

Extends Figure 12's two-system comparison with the LoD-R-tree [8] from
the paper's related work.  Section 2's claim to verify: the LoD-R-tree
"leads to high frame rates as long as the user stays within the
viewing-frustum.  However, its performance degenerates significantly as
the user view changes" — so it should look fine on session 1 (forward
walking) and suffer disproportionately on session 2 (turning), where
REVIEW's direction-free box and VISUAL's cell-keyed visibility barely
notice the head movement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.config import (ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_table
from repro.obs.replay import replay, session_path
from repro.walkthrough.metrics import frame_time_stats
from repro.walkthrough.visual import LodRTreeWalkthrough, ReviewWalkthrough

SESSION_LABELS = {1: "session 1 (normal)", 2: "session 2 (turning)",
                  3: "session 3 (back/forward)"}


@dataclass
class BaselineComparisonResult:
    #: session -> system label -> (mean frame ms, fidelity).
    rows: Dict[int, Dict[str, List[float]]]

    def format_table(self) -> str:
        systems = list(next(iter(self.rows.values())))
        headers = ["session"]
        for system in systems:
            headers += [f"{system} ms", f"{system} fid"]
        table_rows = []
        for number in sorted(self.rows):
            row: List[object] = [SESSION_LABELS[number]]
            for system in systems:
                mean_ms, fidelity = self.rows[number][system]
                row += [round(mean_ms, 1), round(fidelity, 3)]
            table_rows.append(row)
        return format_table(
            "Baseline comparison: mean frame time / fidelity per session",
            headers, table_rows)

    def turning_penalty(self, system: str) -> float:
        """Frame-time ratio of session 2 over session 1 — the view-
        variance sensitivity."""
        return self.rows[2][system][0] / self.rows[1][system][0]


def run_baseline_comparison(scale: ExperimentScale = MEDIUM, *,
                            eta: float = 0.001
                            ) -> BaselineComparisonResult:
    env = build_experiment_environment(scale)
    rows: Dict[int, Dict[str, List[float]]] = {}
    for number in (1, 2, 3):
        session = session_path(scale, env, number)
        per_system: Dict[str, List[float]] = {}

        _, report = replay(scale, env, session, eta=eta)
        stats = frame_time_stats(report.frame_times())
        per_system["VISUAL"] = [stats.mean_ms, report.avg_fidelity()]

        review = ReviewWalkthrough(env,
                                   box_size=scale.review_box_comparable)
        report = review.run(session)
        stats = frame_time_stats(report.frame_times())
        per_system["REVIEW"] = [stats.mean_ms, report.avg_fidelity()]

        lod_rtree = LodRTreeWalkthrough(
            env, depth=scale.review_box_comparable)
        report = lod_rtree.run(session)
        stats = frame_time_stats(report.frame_times())
        per_system["LoD-R-tree"] = [stats.mean_ms, report.avg_fidelity()]

        rows[number] = per_system
    return BaselineComparisonResult(rows=rows)
