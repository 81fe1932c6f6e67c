"""Walkthrough metrics: frame-time statistics and visual fidelity.

Frame-time statistics reproduce Table 3's columns (average frame time and
variance of frame time).

The fidelity metric quantifies Figure 11's screenshots.  Ground truth for
a cell is its full set of visible objects with DoV weights; the *required*
detail of a visible object is the eq.-6 LoD — the representation the
paper itself treats as visually sufficient (it is what both the naive
method and the HDoV-tree at ``eta = 0``, whose fidelity the paper calls
"very good", render).  A frame's fidelity is then

  fidelity = sum_i dov_i * detail_i / sum_i dov_i

with ``detail_i = min(rendered_polygons_i / required_polygons_i, 1)``,
and 0 for a visible object the system missed entirely (REVIEW's
out-of-box losses).  Objects covered by an internal LoD split the
internal LoD's polygons against the sum of their required polygons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.hdov_tree import CellTruth, HDoVEnvironment
from repro.core.search import SearchResult
from repro.errors import WalkthroughError
from repro.lod.selection import leaf_lod_fraction


@dataclass(frozen=True)
class FrameTimeStats:
    """Average and variance of a frame-time series (Table 3's columns)."""

    mean_ms: float
    variance: float
    maximum_ms: float
    num_frames: int


def frame_time_stats(frame_times_ms: Sequence[float]) -> FrameTimeStats:
    """Population statistics of a frame-time series."""
    times = list(frame_times_ms)
    if not times:
        raise WalkthroughError("no frames to summarise")
    mean = sum(times) / len(times)
    variance = sum((t - mean) ** 2 for t in times) / len(times)
    return FrameTimeStats(mean_ms=mean, variance=variance,
                          maximum_ms=max(times), num_frames=len(times))


class FidelityMetric:
    """Fidelity of rendered frames against the per-cell ground truth.

    A cell's ground truth — its visible ``(object, DoV)`` pairs in the
    visibility table's order, the eq.-6 polygons each requires and the
    summed DoV — is derived from build-time data alone, so it is worked
    out on a cell's first score and kept in the environment's
    ``fidelity_truth`` table, which every ``session_env`` view shares
    and nothing clears.  Scores are the same floats as deriving it per
    call: the sums run in the same order.  A plan's answer is scored
    once per plan (:meth:`score_hdov`).
    """

    def __init__(self, env: HDoVEnvironment) -> None:
        self.env = env

    # -- ground truth -----------------------------------------------------

    def ground_truth(self, cell_id: int) -> Dict[int, float]:
        """Visible objects and their DoVs in a cell."""
        return dict(self.env.visibility.cell(cell_id).dov)

    def required_polygons(self, object_id: int, dov: float) -> int:
        """The eq.-6 polygon budget that counts as full detail."""
        chain = self.env.objects[object_id].chain
        return max(chain.interpolated_polygons(leaf_lod_fraction(dov)), 1)

    def _truth(self, cell_id: int) -> CellTruth:
        """The cell's entry of the environment's ground-truth table."""
        truth = self.env.fidelity_truth.get(cell_id)
        if truth is None:
            visible = tuple(self.env.visibility.cell(cell_id).dov.items())
            required = {oid: self.required_polygons(oid, dov)
                        for oid, dov in visible}
            truth = (visible, required, sum(dov for _, dov in visible))
            self.env.fidelity_truth[cell_id] = truth
        return truth

    # -- scoring -----------------------------------------------------------

    def score_hdov(self, result: SearchResult) -> float:
        """Fidelity of an HDoV search result.

        Directly retrieved objects are rendered at exactly the required
        eq.-6 LoD, so they score 1 (an object outside the truth is
        priced at DoV 0); internal LoDs score the ratio of their
        polygons to the covered objects' summed requirement.

        An answer remembered as a query plan is scored once: the score
        rides on the plan (``PlanAnswer.fidelity``), and every session
        that recalls the plan gets that float.
        """
        plan = result.plan
        if plan is None:
            return self._score(result)
        if plan.fidelity is None:
            plan.fidelity = self._score(result)
        return plan.fidelity

    def _score(self, result: SearchResult) -> float:
        """:meth:`score_hdov` worked out from the answer itself."""
        visible, required, total = self._truth(result.cell_id)
        if not visible:
            return 1.0
        detail: Dict[int, float] = {}
        for obj in result.objects:
            need = required.get(obj.object_id)
            if need is None:
                need = self.required_polygons(obj.object_id, 0.0)
            detail[obj.object_id] = min(obj.polygons / need, 1.0)
        for internal in result.internals:
            covered = [oid for oid in internal.covered_objects
                       if oid in required]
            need = sum(required[oid] for oid in covered)
            frac = min(internal.polygons / need, 1.0) if need else 1.0
            for oid in covered:
                detail[oid] = max(detail.get(oid, 0.0), frac)
        return self._weighted(visible, total, detail)

    def score_rendered(self, cell_id: int,
                       rendered_polygons: Dict[int, int]) -> float:
        """Fidelity of an arbitrary rendered set.

        ``rendered_polygons`` maps object id -> polygons actually
        rendered.  Visible objects absent from the mapping score zero —
        the missed-object penalty of Figure 11.
        """
        visible, required, total = self._truth(cell_id)
        if not visible:
            return 1.0
        detail = {oid: min(polys / required[oid], 1.0)
                  for oid, polys in rendered_polygons.items()
                  if oid in required}
        return self._weighted(visible, total, detail)

    def missed_objects(self, cell_id: int,
                       rendered_ids: Iterable[int]) -> List[int]:
        """Visible objects not presented at all (Figure 11's lost
        far-away models)."""
        truth = self.ground_truth(cell_id)
        rendered = set(rendered_ids)
        return sorted(oid for oid in truth if oid not in rendered)

    @staticmethod
    def _weighted(visible: Tuple[Tuple[int, float], ...], total: float,
                  detail: Dict[int, float]) -> float:
        if total == 0.0:
            return 1.0
        achieved = sum(dov * min(max(detail.get(oid, 0.0), 0.0), 1.0)
                       for oid, dov in visible)
        return achieved / total
