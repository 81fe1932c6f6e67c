"""Memory comparison — Section 5.4's closing measurement.

"The maximum memory used by the VISUAL system is 28MB, while the REVIEW
system with a query box size of 400 meters requires 62MB."  We reproduce
the comparison as peak resident model bytes over session 1, plus the
eta-dependence the paper notes ("If the threshold becomes larger ...
less memory is consumed" for freshly-fetched detail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.config import (ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_table
from repro.obs.replay import replay, session_path
from repro.walkthrough.memory import MemoryReport, memory_report
from repro.walkthrough.visual import ReviewWalkthrough


@dataclass
class MemoryComparisonResult:
    reports: List[MemoryReport]

    def format_table(self) -> str:
        rows = [[r.system, round(r.peak_mb, 3), round(r.mean_mb, 3)]
                for r in self.reports]
        return format_table("Memory usage (session 1)",
                            ["system", "peak MB", "mean MB"], rows)

    def visual_peak(self) -> int:
        return self.reports[0].peak_bytes

    def review_peak(self) -> int:
        return self.reports[-1].peak_bytes


def run_memory_comparison(scale: ExperimentScale = MEDIUM, *,
                          etas=(0.001, 0.004),
                          review_box: float = 400.0
                          ) -> MemoryComparisonResult:
    env = build_experiment_environment(scale)
    session = session_path(scale, env, 1)
    reports: List[MemoryReport] = []
    for eta in etas:
        _, run = replay(scale, env, session, eta=eta)
        reports.append(memory_report(f"VISUAL(eta={eta})", run.frames))
    review = ReviewWalkthrough(env, box_size=review_box,
                               evaluate_fidelity=False)
    run = review.run(session)
    reports.append(memory_report(f"REVIEW({review_box:g}m)", run.frames))
    return MemoryComparisonResult(reports=reports)
