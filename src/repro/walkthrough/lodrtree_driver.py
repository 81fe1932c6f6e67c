"""Replay driver for the LoD-R-tree baseline.

Counterpart of :class:`~repro.walkthrough.visual.ReviewWalkthrough` for
:class:`~repro.baselines.lod_rtree.LodRTreeSystem`, so the baseline can
be replayed over recorded sessions and compared frame-for-frame with
VISUAL and REVIEW.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.lod_rtree import LodRTreeSystem
from repro.core.hdov_tree import HDoVEnvironment
from repro.walkthrough.frame import FrameModel
from repro.walkthrough.metrics import FidelityMetric
from repro.walkthrough.session import Session
from repro.walkthrough.visual import WalkthroughReport, replay_baseline


class LodRTreeWalkthrough:
    """Replays sessions on the LoD-R-tree system."""

    def __init__(self, env: HDoVEnvironment, *, depth: float = 400.0,
                 num_slabs: int = 3,
                 requery_angle_deg: float = 15.0,
                 frame_model: Optional[FrameModel] = None,
                 evaluate_fidelity: bool = True) -> None:
        self.env = env
        self.system = LodRTreeSystem(env, depth=depth,
                                     num_slabs=num_slabs,
                                     requery_angle_deg=requery_angle_deg)
        self.frame_model = frame_model or FrameModel()
        self.evaluate_fidelity = evaluate_fidelity
        self._fidelity = FidelityMetric(env)

    def _slab_fraction_at(self, distance: float) -> float:
        """LoD fraction of the slab an MBR at ``distance`` falls in
        (nearest-slab assignment by distance bucketing)."""
        slab_width = self.system.depth / self.system.num_slabs
        slab = min(int(distance / max(slab_width, 1e-9)),
                   self.system.num_slabs - 1)
        return self.system._slab_fraction(slab)

    def run(self, session: Session) -> WalkthroughReport:
        self.system.clear_cache()
        frames = replay_baseline(
            self.env, session, self.frame_model,
            self._fidelity if self.evaluate_fidelity else None,
            step=lambda position, waypoint: self.system.frame(
                position, waypoint.direction_array())[0],
            lod_fraction=self._slab_fraction_at,
            resident_bytes=lambda: self.system.resident_bytes)
        return WalkthroughReport(
            system=f"LoD-R-tree(depth={self.system.depth:g}m)",
            session=session.name, frames=frames)
