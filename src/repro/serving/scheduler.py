"""Round-based session scheduling with admission control.

The scheduler advances every active session by one frame per *round*:

* **phase 1** (query + accounting) runs serialized, in ascending
  session id.  CPython's GIL would serialize the pure-Python traversal
  anyway, so nothing real is lost — and in exchange the shared
  simulated clock, the shared buffer pool, and the fault injector's RNG
  are consumed in one deterministic order, making the whole service a
  pure function of (sessions, seed, scale, eta, frames, plan),
  independent of worker count;
* **phase 2** (fidelity scoring — read-only math) fans out to a
  :class:`~concurrent.futures.ThreadPoolExecutor` with ``workers``
  threads; the round barrier installs every score before the next
  round, so the results are identical whether 1 or 16 workers ran.

Admission control: at most ``max_active`` sessions run concurrently;
the rest wait in FIFO (session id) order and are admitted as slots
free up.  Overload control: a session whose previous frame exceeded
``frame_budget_ms`` on the *simulated* clock has its next query shed
to the root-LoD degraded answer instead of queueing work unboundedly.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.concurrency.witness import wrap_lock
from repro.errors import WalkthroughError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.serving.session import ServingSession


class SessionScheduler:
    """Drives N sessions to completion in deterministic rounds.

    The scheduler's own bookkeeping (``rounds``, ``frames_served``,
    admission churn) is guarded by ``_state_lock`` so observers — the
    HTTP stats endpoint, a progress poller — can read a consistent
    snapshot via :meth:`progress` while a round is in flight.  Session
    stepping happens *outside* the lock: the state lock sits at the top
    of the lock lattice and must never be held across pool or file work.
    """

    #: Lattice level of ``_state_lock`` (see repro.concurrency.order):
    #: the outermost level — holding it, only pool/file/registry locks
    #: may be acquired, never another scheduler's.
    LOCK_LEVEL = "serving.scheduler"

    def __init__(self, sessions: Sequence[ServingSession], *,
                 workers: int = 1, max_active: Optional[int] = None,
                 frame_budget_ms: Optional[float] = None) -> None:
        if workers < 1:
            raise WalkthroughError(f"workers must be >= 1, got {workers}")
        if max_active is not None and max_active < 1:
            raise WalkthroughError(
                f"max_active must be >= 1, got {max_active}")
        # ``not x > 0`` rather than ``x <= 0``: NaN is refused too.
        if frame_budget_ms is not None and not frame_budget_ms > 0:
            raise WalkthroughError(
                f"frame_budget_ms must be > 0, got {frame_budget_ms}")
        self.sessions = sorted(sessions, key=lambda s: s.session_id)
        self.workers = workers
        self.max_active = (max_active if max_active is not None
                           else max(len(self.sessions), 1))
        self.frame_budget_ms = frame_budget_ms
        self._state_lock = wrap_lock(threading.Lock(),
                                     level=SessionScheduler.LOCK_LEVEL,
                                     name="scheduler")
        self.rounds = 0
        self.frames_served = 0

    def run(self) -> None:
        """Serve every session to the end of its path."""
        registry = get_registry()
        m_rounds = registry.counter(names.SERVING_ROUNDS)
        m_frames = registry.counter(names.SERVING_FRAMES)
        m_waits = registry.counter(names.SERVING_ADMISSION_WAITS)
        m_active = registry.gauge(names.SERVING_ACTIVE_SESSIONS)
        waiting: Deque[ServingSession] = deque(self.sessions)
        active: List[ServingSession] = []
        executor = (ThreadPoolExecutor(max_workers=self.workers)
                    if self.workers > 1 else None)
        try:
            while waiting or active:
                with self._state_lock:
                    while waiting and len(active) < self.max_active:
                        active.append(waiting.popleft())
                    for session in waiting:
                        session.admission_wait_rounds += 1
                        m_waits.inc()
                    m_active.set(len(active))
                    self.rounds += 1
                    m_rounds.inc()

                # Phase 1 — serialized query + accounting, id order.
                # Stepping runs outside the state lock: session.step()
                # reaches pool and file locks, and the lattice forbids
                # holding the scheduler lock across blocking work.
                served = 0
                scoring: List[Tuple[ServingSession,
                                    Callable[[], float]]] = []
                for session in active:
                    shed = (self.frame_budget_ms is not None
                            and session.last_frame_ms
                            > self.frame_budget_ms)
                    thunk = session.step(shed_load=shed)
                    served += 1
                    m_frames.inc()
                    if thunk is not None:
                        scoring.append((session, thunk))
                with self._state_lock:
                    self.frames_served += served

                # Phase 2 — parallel fidelity scoring.  The round
                # barrier installs every score in session order before
                # the next phase 1.
                if executor is not None:
                    futures = [(session, executor.submit(thunk))
                               for session, thunk in scoring]
                    for session, future in futures:
                        session.install_fidelity(future.result())
                else:
                    for session, thunk in scoring:
                        session.install_fidelity(thunk())

                active = [s for s in active if not s.done]
        finally:
            if executor is not None:
                executor.shutdown(wait=True)
            # The loop exits (or aborts) with no session being served;
            # without this, post-run scrapes and the `repro serve`
            # report would show the last round's count as still active.
            m_active.set(0)

    def progress(self) -> Tuple[int, int]:
        """``(rounds, frames_served)`` as one consistent snapshot.

        Safe to call from any thread while :meth:`run` is in flight.
        """
        with self._state_lock:
            return (self.rounds, self.frames_served)

    def __repr__(self) -> str:
        return (f"SessionScheduler(sessions={len(self.sessions)}, "
                f"workers={self.workers}, max_active={self.max_active}, "
                f"rounds={self.rounds})")
