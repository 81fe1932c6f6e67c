"""Replay driver for the LoD-R-tree baseline.

Counterpart of :class:`~repro.walkthrough.visual.ReviewWalkthrough` for
:class:`~repro.baselines.lod_rtree.LodRTreeSystem`, so the baseline can
be replayed over recorded sessions and compared frame-for-frame with
VISUAL and REVIEW.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.lod_rtree import LodRTreeSystem
from repro.core.hdov_tree import HDoVEnvironment
from repro.walkthrough.frame import FrameModel, FrameRecord
from repro.walkthrough.metrics import FidelityMetric
from repro.walkthrough.session import Session
from repro.walkthrough.visual import WalkthroughReport


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

    def run(self, session: Session) -> WalkthroughReport:
        frames: List[FrameRecord] = []
        self.system.clear_cache()
        last_fidelity = float("nan")
        for index, waypoint in enumerate(session):
            position = waypoint.position_array()
            direction = waypoint.direction_array()
            snap = self.env.snapshot()
            result, _queried = self.system.frame(position, direction)
            light, heavy = self.env.delta(snap)
            cell_id = self.env.grid.cell_of_point(position)
            if self.evaluate_fidelity:
                rendered: Dict[int, int] = {}
                for oid in result.object_ids:
                    record = self.env.objects[oid]
                    # Reconstruct the slab fraction from distance along
                    # the slab structure: use nearest-slab assignment
                    # by MBR distance bucketing.
                    mbr = record.chain.finest.aabb()
                    dist = mbr.min_distance_to_point(position)
                    slab_width = self.system.depth / self.system.num_slabs
                    slab = min(int(dist / max(slab_width, 1e-9)),
                               self.system.num_slabs - 1)
                    fraction = self.system._slab_fraction(slab)
                    rendered[oid] = record.chain \
                        .interpolated_polygons(fraction)
                last_fidelity = self._fidelity.score_rendered(cell_id,
                                                              rendered)
            frames.append(self.frame_model.record(
                index, cell_id, light, heavy, result.total_polygons,
                last_fidelity, self.system.resident_bytes))
        return WalkthroughReport(
            system=f"LoD-R-tree(depth={self.system.depth:g}m)",
            session=session.name, frames=frames)
