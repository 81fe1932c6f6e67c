"""One served walkthrough session, advanced frame by frame.

:class:`ServingSession` runs the frame body of
:class:`~repro.walkthrough.visual.VisualSystem` (query on cell change,
delta fetch, frame-time model) — the same method, not a copy — but
exposes it as a ``step()`` the scheduler drives one frame at a time, in
two parts:

* **query + accounting** (``step``): all I/O, all shared-clock charges
  and all shared-pool traffic of the frame.  Sessions are stepped one at
  a time on one thread (DESIGN.md §10), which is what makes the
  per-session attribution exact and the whole service bit-deterministic.
* **fidelity scoring** (the thunk ``step`` returns): pure read-only math
  over the environment's ground truth; whoever stepped the session calls
  it and hands the score to :meth:`install_fidelity`.

Overload shedding: when the scheduler flags that the session's previous
frame blew the frame budget, a frame that would query instead answers
from the root's internal LoD (the PR-3 degradation ladder, invoked
proactively) — cheap, complete, coarse — and the next frame re-queries
at full quality.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.core.hdov_tree import HDoVEnvironment
from repro.storage.buffer import BufferPool
from repro.walkthrough.session import Session
from repro.walkthrough.visual import VisualSystem


class ServingSession(VisualSystem):
    """A recorded path replayed one frame per scheduler round.

    Parameters
    ----------
    session_id:
        Stable id; the scheduler steps sessions in ascending order.
    path:
        The recorded waypoint sequence.
    env:
        This session's *view* of the shared environment (private scheme
        flip state, shared files/stats/pool — see ``service.py``).
    pool:
        The shared buffer pool, for per-session hit/miss attribution
        (``None`` when serving unpooled).
    """

    #: Always 0; only benchmarks/perf/oracle.py (frozen) reads it.
    pool_coalesced = 0

    def __init__(self, session_id: int, path: Session,
                 env: HDoVEnvironment, *, eta: float,
                 scheme: Optional[str] = None,
                 pool: Optional[BufferPool] = None,
                 cache_budget_bytes: Optional[int] = None,
                 evaluate_fidelity: bool = True) -> None:
        super().__init__(env, eta=eta, scheme=scheme,
                         evaluate_fidelity=evaluate_fidelity,
                         cache_budget_bytes=cache_budget_bytes)
        self.session_id = session_id
        self.path = path
        self.pool = pool
        self.next_frame = 0
        self.pool_hits = 0
        self.pool_misses = 0

    @property
    def done(self) -> bool:
        return self.next_frame >= self.path.num_frames

    # -- query + accounting ---------------------------------------------------

    def step(self, *, shed_load: bool = False) \
            -> Optional[Callable[[], float]]:
        """Advance one frame; returns the scoring thunk, if any.

        Must be called with no other session's step in flight: the
        shared-clock and shared-pool deltas taken here attribute every
        charge of this frame to this session.
        """
        waypoints = self.path.waypoints
        if self.next_frame >= len(waypoints):
            return None
        position = waypoints[self.next_frame].position
        pool = self.pool
        if pool is not None:
            hits0, misses0 = pool.hits, pool.misses
        thunk = self._frame(self.next_frame, position,
                            shed_load=shed_load, defer_scoring=True)
        if pool is not None:
            self.pool_hits += pool.hits - hits0
            self.pool_misses += pool.misses - misses0
        self.next_frame += 1
        return thunk

    # -- fidelity ---------------------------------------------------------------

    def install_fidelity(self, fidelity: float) -> None:
        """Install a score into the frame that produced it."""
        self._last_fidelity = fidelity
        self.frames[-1] = replace(self.frames[-1], fidelity=fidelity)

    # -- reporting ------------------------------------------------------------

    def degraded_frames(self) -> int:
        return sum(1 for f in self.frames if f.degraded > 0)

    def fidelity_mean(self) -> float:
        scored = [f.fidelity for f in self.frames if f.fidelity == f.fidelity]
        return sum(scored) / len(scored) if scored else float("nan")

    def __repr__(self) -> str:
        return (f"ServingSession(id={self.session_id}, "
                f"frame={self.next_frame}/{self.path.num_frames})")
