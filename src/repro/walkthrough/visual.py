"""Walkthrough drivers: the VISUAL system and the baselines' replay.

Each replays a recorded :class:`~repro.walkthrough.session.Session`
frame by frame, charging database work to the shared simulated disk and
producing :class:`~repro.walkthrough.frame.FrameRecord` series that the
Figure 10/12 and Table 3 experiments summarise.

Query cadence matters for the frame-time *shape*:

* VISUAL's visibility data is per cell, so the answer set only changes
  when the viewpoint crosses a cell boundary; frames inside a cell reuse
  the previous result (temporal coherence) and pay rendering only.  Cell
  crossings pay the flip, the traversal, and the delta fetches — small,
  frequent spikes.
* REVIEW oversizes its query box relative to the frustum and re-queries
  only when the viewpoint drifts past a slack distance — rare, tall
  spikes (the "choppiness" of Figure 10(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.delta import DeltaSearch
from repro.core.hdov_tree import HDoVEnvironment
from repro.core.search import HDoVSearch, SearchResult
from repro.baselines.lod_rtree import LodRTreeSystem
from repro.baselines.review import ReviewSystem, WindowQuerySystem
from repro.errors import WalkthroughError
from repro.geometry.vec import PointLike
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.obs.trace import SpanRecord, span
from repro.storage.disk import IOStats
from repro.walkthrough.frame import FrameModel, FrameRecord
from repro.walkthrough.metrics import FidelityMetric
from repro.walkthrough.session import Session

#: Both I/O deltas of a frame that runs no query; never mutated.
_NO_IO = IOStats()


@dataclass
class WalkthroughReport:
    """All frames of one replay plus identity metadata."""

    system: str
    session: str
    frames: List[FrameRecord]

    def frame_times(self) -> List[float]:
        return [f.frame_ms for f in self.frames]

    def search_times(self) -> List[float]:
        return [f.search_ms for f in self.frames]

    def avg_search_ms(self) -> float:
        return sum(self.search_times()) / len(self.frames)

    def avg_query_search_ms(self) -> float:
        """Mean search time over frames that actually issued a query."""
        queried = [f.search_ms for f in self.frames if f.total_ios > 0]
        if not queried:
            return 0.0
        return sum(queried) / len(queried)

    def avg_ios(self) -> float:
        return sum(f.total_ios for f in self.frames) / len(self.frames)

    def avg_query_ios(self) -> float:
        """Mean I/O count over frames that actually issued a query."""
        queried = [f.total_ios for f in self.frames if f.total_ios > 0]
        if not queried:
            return 0.0
        return sum(queried) / len(queried)

    def avg_fidelity(self) -> float:
        scored = [f.fidelity for f in self.frames if f.fidelity == f.fidelity]
        return sum(scored) / len(scored) if scored else float("nan")

    def peak_resident_bytes(self) -> int:
        return max((f.resident_bytes for f in self.frames), default=0)

    def degraded_frames(self) -> int:
        """Frames rendered with at least one degraded subtree."""
        return sum(1 for f in self.frames if f.degraded > 0)

    def total_degradations(self) -> int:
        """Sum of per-frame degraded-subtree counts."""
        return sum(f.degraded for f in self.frames)


class VisualSystem:
    """The paper's prototype: HDoV-tree search + delta fetch.

    Parameters
    ----------
    env:
        Built environment.
    eta:
        The DoV threshold driving the traversal.
    scheme:
        Storage scheme name (defaults to the environment's only scheme).
    """

    def __init__(self, env: HDoVEnvironment, *, eta: float,
                 scheme: Optional[str] = None,
                 evaluate_fidelity: bool = True,
                 cache_budget_bytes: Optional[int] = None) -> None:
        if not eta >= 0:                        # NaN is refused too
            raise WalkthroughError(f"eta must be >= 0, got {eta}")
        self.env = env
        self.eta = eta
        self.frame_model = FrameModel()
        self.evaluate_fidelity = evaluate_fidelity
        searcher = HDoVSearch(env, scheme, fetch_models=False)
        self.delta = DeltaSearch(searcher,
                                 cache_budget_bytes=cache_budget_bytes)
        self._fidelity = FidelityMetric(env)
        self._begin_replay()

    def _begin_replay(self) -> None:
        """Forget the previous replay: resident models, frames, ledgers
        and the last answer."""
        self.delta.clear()
        self.frames: List[FrameRecord] = []
        self.queries = 0
        self.overload_degraded = 0
        self.last_frame_ms = 0.0
        #: This replay's I/O attribution, exact: deltas of the
        #: environment's ledgers taken around each frame.
        self.light_total = IOStats()
        self.heavy_total = IOStats()
        self._last_cell: Optional[int] = None
        self._last_result: Optional[SearchResult] = None
        self._last_polygons = 0     # of _last_result, summed once a query
        self._last_fidelity = float("nan")
        self._last_degraded = 0

    def run(self, session: Session) -> WalkthroughReport:
        """Replay a session from cold; returns the per-frame records."""
        self.env.reset_runtime_state()
        self._begin_replay()
        for index, waypoint in enumerate(session):
            with span("frame", index=index) as sp:
                self._frame(index, waypoint.position, sp=sp)
        return WalkthroughReport(system=f"VISUAL(eta={self.eta})",
                                 session=session.name, frames=self.frames)

    def _frame(self, index: int, position: PointLike, *,
               shed_load: bool = False, defer_scoring: bool = False,
               sp: Optional[SpanRecord] = None
               ) -> Optional[Callable[[], float]]:
        """The VISUAL frame body: query on cell change, delta fetch,
        frame-time model, record.

        ``run`` above and :class:`~repro.serving.session.ServingSession`
        both execute exactly this, which is what makes a single
        unpooled served session equal the sequential replay.  All I/O
        is a query's (a shed one included) and happens inside its
        ``env.snapshot()``/``env.delta()`` window, so ``light_total``/
        ``heavy_total`` attribute every charge of the frame to this
        replay; a frame that reuses the previous answer opens no window
        and records the shared all-zero ``_NO_IO`` as both deltas.

        ``shed_load`` answers a frame that would query from the root's
        internal LoD instead and forces a full re-query next frame
        (the very first frame always runs a full query — there is
        nothing coarser to show yet).  With ``defer_scoring`` the
        fidelity score is not computed here but returned as a thunk —
        pure read-only math the serving scheduler fans out — and the
        record carries the previous score until it is installed.
        """
        cell_id = self.env.grid.cell_of_point(position)
        queried = cell_id != self._last_cell or self._last_result is None
        thunk: Optional[Callable[[], float]] = None
        light = heavy = _NO_IO
        if queried:
            snap = self.env.snapshot()
            self.queries += 1
            if shed_load and self._last_result is not None:
                result = self.delta.query_cell_degraded(cell_id, self.eta)
                self.overload_degraded += 1
                get_registry().counter(
                    names.SERVING_OVERLOAD_DEGRADED).inc()
                self._last_cell = None
            else:
                result = self.delta.query_cell(cell_id, self.eta)
                self._last_cell = cell_id
            self._last_result = result
            self._last_polygons = result.total_polygons
            self._last_degraded = result.degraded
            if self.evaluate_fidelity:
                if defer_scoring:
                    thunk = partial(self._fidelity.score_hdov, result)
                else:
                    self._last_fidelity = self._fidelity.score_hdov(result)
            light, heavy = self.env.delta(snap)
            self.light_total += light
            self.heavy_total += heavy
        if sp is not None:
            sp.attrs.update({"cell": cell_id, "queried": queried,
                             "light_ios": light.total_ios,
                             "heavy_ios": heavy.total_ios,
                             "light_ms": light.simulated_ms,
                             "heavy_ms": heavy.simulated_ms})
        assert self._last_result is not None
        if self._last_degraded:
            # Created lazily (and fetched per call, not cached):
            # fault-free runs register no series, and registry swaps by
            # `repro chaos` / `repro profile` / `repro serve` stay safe.
            get_registry().counter(names.FRAMES_DEGRADED).inc()
        record = self.frame_model.record(
            index, cell_id, light, heavy,
            self._last_polygons, self._last_fidelity,
            self.delta.resident_bytes
            + self.delta.search.scheme.resident_bytes(),
            self._last_degraded)
        self.frames.append(record)
        self.last_frame_ms = record.frame_ms
        return thunk


def replay_baseline(system: WindowQuerySystem, session: Session,
                    fidelity: Optional[FidelityMetric]
                    ) -> List[FrameRecord]:
    """The frame loop of the spatial-query baselines (REVIEW, the
    LoD-R-tree): ``system`` answers one waypoint, its charges become
    the frame's, and — when ``fidelity`` is given — each answered
    object is scored at the LoD the system picks for its MBR distance.

    Fidelity is against the *current* cell's ground truth, whether or
    not a query ran this frame.
    """
    env, frame_model = system.env, FrameModel()
    frames: List[FrameRecord] = []
    last_fidelity = float("nan")
    for index, waypoint in enumerate(session):
        position = waypoint.position_array()
        snap = env.snapshot()
        result, _queried = system.frame(position, waypoint.direction_array())
        light, heavy = env.delta(snap)
        cell_id = env.grid.cell_of_point(position)
        if fidelity is not None:
            rendered: Dict[int, int] = {}
            for oid in result.object_ids:
                chain = env.objects[oid].chain
                distance = chain.finest.aabb().min_distance_to_point(position)
                rendered[oid] = chain.interpolated_polygons(
                    system.lod_fraction_at(distance))
            last_fidelity = fidelity.score_rendered(cell_id, rendered)
        frames.append(frame_model.record(
            index, cell_id, light, heavy, result.total_polygons,
            last_fidelity, system.resident_bytes))
    return frames


class BaselineWalkthrough:
    """Replay driver around a window-query baseline system."""

    def __init__(self, system: WindowQuerySystem, label: str,
                 evaluate_fidelity: bool = True) -> None:
        self.system = system
        self.label = label
        self._fidelity = (FidelityMetric(system.env)
                          if evaluate_fidelity else None)

    def run(self, session: Session) -> WalkthroughReport:
        """Replay a session from cold, as :meth:`VisualSystem.run`."""
        self.system.env.reset_runtime_state()
        self.system.clear_cache()
        return WalkthroughReport(
            system=self.label, session=session.name,
            frames=replay_baseline(self.system, session, self._fidelity))


def ReviewWalkthrough(env: HDoVEnvironment, *, box_size: float = 400.0,
                      evaluate_fidelity: bool = True,
                      cache_budget_bytes: Optional[int] = None
                      ) -> BaselineWalkthrough:
    """Replays sessions on :class:`~repro.baselines.review.ReviewSystem`."""
    return BaselineWalkthrough(
        ReviewSystem(env, box_size=box_size,
                     cache_budget_bytes=cache_budget_bytes),
        f"REVIEW(box={box_size:g}m)", evaluate_fidelity)


def LodRTreeWalkthrough(env: HDoVEnvironment, *, depth: float = 400.0
                        ) -> BaselineWalkthrough:
    """Replays sessions on
    :class:`~repro.baselines.lod_rtree.LodRTreeSystem`, so the baseline
    can be compared frame-for-frame with VISUAL and REVIEW."""
    return BaselineWalkthrough(LodRTreeSystem(env, depth=depth),
                               f"LoD-R-tree(depth={depth:g}m)")
