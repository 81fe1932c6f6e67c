"""Table 3 — average frame time and variance vs eta, plus a REVIEW row.

Paper result: frame time falls from 15.92 ms (eta = 0) to ~12.7 ms
(eta >= 0.001) and the variance falls from 6.34 to ~4.2, while REVIEW
with comparable-fidelity 400 m boxes sits at 57.84 ms with variance
16.46.  The reproduction replays session 1 at every eta of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.config import (ETA_SWEEP, ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_table
from repro.obs.replay import replay, session_path
from repro.walkthrough.metrics import frame_time_stats
from repro.walkthrough.visual import ReviewWalkthrough


@dataclass
class Table3Row:
    label: str
    mean_ms: float
    variance: float
    fidelity: float


@dataclass
class Table3Result:
    rows: List[Table3Row]
    num_frames: int

    def format_table(self) -> str:
        table_rows = [[r.label, round(r.mean_ms, 2), round(r.variance, 2),
                       round(r.fidelity, 3)] for r in self.rows]
        return format_table(
            f"Table 3: frame time on session 1 ({self.num_frames} frames)",
            ["eta / system", "avg frame ms", "variance", "fidelity"],
            table_rows)

    def visual_rows(self) -> List[Table3Row]:
        return [r for r in self.rows if not r.label.startswith("REVIEW")]

    def review_row(self) -> Optional[Table3Row]:
        for row in self.rows:
            if row.label.startswith("REVIEW"):
                return row
        return None


def run_table3(scale: ExperimentScale = MEDIUM,
               etas: Sequence[float] = ETA_SWEEP) -> Table3Result:
    env = build_experiment_environment(scale)
    session = session_path(scale, env, 1)
    rows: List[Table3Row] = []
    for eta in etas:
        _, report = replay(scale, env, session, eta=eta)
        stats = frame_time_stats(report.frame_times())
        rows.append(Table3Row(label=f"{eta:g}", mean_ms=stats.mean_ms,
                              variance=stats.variance,
                              fidelity=report.avg_fidelity()))
    review = ReviewWalkthrough(env, box_size=scale.review_box_comparable)
    review_report = review.run(session)
    review_stats = frame_time_stats(review_report.frame_times())
    rows.append(Table3Row(
        label=f"REVIEW({scale.review_box_comparable:g}m)",
        mean_ms=review_stats.mean_ms, variance=review_stats.variance,
        fidelity=review_report.avg_fidelity()))
    return Table3Result(rows=rows, num_frames=session.num_frames)
