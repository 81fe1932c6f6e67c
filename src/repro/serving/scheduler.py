"""Round-based session scheduling with overload shedding.

The scheduler advances every unfinished session one frame per *round*,
on the calling thread: first each session's query and accounting
(``ServingSession.step``) in ascending session id, then the round's
fidelity scores, inline and in the same order.  Nothing here starts a
thread (DESIGN.md §10), so the shared simulated clock, the shared buffer
pool and the fault injector's RNG are consumed in one deterministic
order and the whole service is a pure function of (sessions, seed,
scale, eta, frames, plan).

Every session is active from round 1.  Overload control: a session
whose previous frame exceeded ``frame_budget_ms`` on the *simulated*
clock has its next query shed to the root-LoD degraded answer instead
of queueing work unboundedly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import WalkthroughError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.serving.session import ServingSession


class SessionScheduler:
    """Drives N sessions to completion in deterministic rounds."""

    def __init__(self, sessions: Sequence[ServingSession], *,
                 workers: int = 1,
                 frame_budget_ms: Optional[float] = None) -> None:
        # ``workers`` is inert: benchmarks/perf/drivers.py (frozen) passes it.
        # ``not x > 0`` rather than ``x <= 0``: NaN is refused too.
        if frame_budget_ms is not None and not frame_budget_ms > 0:
            raise WalkthroughError(
                f"frame_budget_ms must be > 0, got {frame_budget_ms}")
        self.sessions = sorted(sessions, key=lambda s: s.session_id)
        self.frame_budget_ms = frame_budget_ms
        self.rounds = 0
        self.frames_served = 0

    def run(self) -> None:
        """Serve every session to the end of its path."""
        registry = get_registry()
        m_rounds = registry.counter(names.SERVING_ROUNDS)
        m_frames = registry.counter(names.SERVING_FRAMES)
        m_active = registry.gauge(names.SERVING_ACTIVE_SESSIONS)
        active = list(self.sessions)
        try:
            while active:
                m_active.set(len(active))
                self.rounds += 1
                m_rounds.inc()

                # Query + accounting for every session, then the scores:
                # a round that aborts installs and counts nothing.
                scoring: List[Tuple[ServingSession,
                                    Callable[[], float]]] = []
                for session in active:
                    shed = (self.frame_budget_ms is not None
                            and session.last_frame_ms
                            > self.frame_budget_ms)
                    thunk = session.step(shed_load=shed)
                    m_frames.inc()
                    if thunk is not None:
                        scoring.append((session, thunk))
                self.frames_served += len(active)
                for session, thunk in scoring:
                    session.install_fidelity(thunk())

                active = [s for s in active if not s.done]
        finally:
            # The loop exits (or aborts) with no session being served;
            # without this, post-run scrapes and the `repro serve`
            # report would show the last round's count as still active.
            m_active.set(0)

    def __repr__(self) -> str:
        return (f"SessionScheduler(sessions={len(self.sessions)}, "
                f"rounds={self.rounds})")
