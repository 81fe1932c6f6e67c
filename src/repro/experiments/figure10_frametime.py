"""Figure 10 — per-frame time series during a walkthrough session.

(a) VISUAL(eta=0.001) vs REVIEW with comparable-fidelity (400 m) query
    boxes: REVIEW is slower *and* choppier (tall spikes at its re-query
    frames).
(b) VISUAL at eta=0.001 vs eta=0.0003: the larger threshold is faster.

The result carries the full frame-time series (the paper plots them) and
summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.config import (ExperimentScale, MEDIUM,
                                      build_experiment_environment)
from repro.experiments.report import format_table
from repro.obs.replay import replay, session_path
from repro.walkthrough.metrics import FrameTimeStats, frame_time_stats
from repro.walkthrough.visual import ReviewWalkthrough, WalkthroughReport


@dataclass
class Figure10Series:
    label: str
    report: WalkthroughReport
    stats: FrameTimeStats


@dataclass
class Figure10Result:
    panel: str
    series: List[Figure10Series]

    def format_table(self) -> str:
        rows = [[s.label, round(s.stats.mean_ms, 2),
                 round(s.stats.variance, 2), round(s.stats.maximum_ms, 1),
                 round(s.report.avg_fidelity(), 3)]
                for s in self.series]
        return format_table(
            f"Figure 10({self.panel}): frame time over "
            f"{self.series[0].stats.num_frames} frames",
            ["system", "mean ms", "variance", "max ms", "fidelity"], rows)


def _series(label: str, report: WalkthroughReport) -> Figure10Series:
    return Figure10Series(label=label, report=report,
                          stats=frame_time_stats(report.frame_times()))


def run_figure10a(scale: ExperimentScale = MEDIUM, *,
                  eta: float = 0.001) -> Figure10Result:
    """VISUAL(eta) vs REVIEW(comparable boxes) on session 1."""
    env = build_experiment_environment(scale)
    session = session_path(scale, env, 1)
    _, visual_report = replay(scale, env, session, eta=eta)
    review = ReviewWalkthrough(env, box_size=scale.review_box_comparable)
    review_report = review.run(session)
    return Figure10Result(panel="a", series=[
        _series(f"VISUAL(eta={eta})", visual_report),
        _series(f"REVIEW({scale.review_box_comparable:g}m)", review_report),
    ])


def run_figure10b(scale: ExperimentScale = MEDIUM, *,
                  eta_fast: float = 0.001,
                  eta_fine: float = 0.0003) -> Figure10Result:
    """VISUAL at two thresholds on session 1."""
    env = build_experiment_environment(scale)
    session = session_path(scale, env, 1)
    return Figure10Result(panel="b", series=[
        _series(f"VISUAL(eta={eta})", replay(scale, env, session, eta=eta)[1])
        for eta in (eta_fast, eta_fine)])
