"""``repro serve`` — the multi-session walkthrough service runner.

Builds a fresh environment against a fresh metrics registry, creates N
sessions (motion patterns drawn from the seed), serves them through one
shared buffer pool under the round scheduler, and emits a JSON-ready
report: per-session frame times and I/O attribution, pool hit rates,
degraded-frame counts, and an exact reconciliation of per-session
accounting against the shared clock.

The report deliberately contains *no wall-clock measurements*:
everything in it is a pure function of (sessions, seed, scale, eta,
frames, plan), so two runs with the same arguments must produce
byte-identical JSON — the CI serving-stress job diffs exactly that.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.hdov_tree import HDoVEnvironment
from repro.errors import ReproError, WalkthroughError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.replay import (build_world, injected_faults, load_scale,
                              session_path, unbalanced_fields)
from repro.serving.pooled import PooledNodeStore
from repro.serving.scheduler import SessionScheduler
from repro.serving.session import ServingSession
from repro.storage.buffer import BufferPool
from repro.storage.disk import IOStats
from repro.storage.faults import named_plan
from repro.walkthrough.metrics import frame_time_stats


def session_env(env: HDoVEnvironment,
                 pool: Optional[BufferPool]) -> HDoVEnvironment:
    """A per-session view: private flip state, shared storage.

    Files, stats ledgers, object store, ground truth and blob records
    are shared (by reference) with the parent environment; the scheme
    objects are cloned via ``session_view()`` so each session owns its
    current cell, and node reads go through the shared pool.  With a
    pool, the models the pool's sessions hold are one table too
    (``ObjectStore.shared_by``): a session reads only what none of them
    holds.
    """
    schemes = {}
    for scheme_name, scheme in env.schemes.items():
        view = scheme.session_view()
        view.page_cache = pool
        schemes[scheme_name] = view
    if pool is None:
        return replace(env, schemes=schemes)
    return replace(env, schemes=schemes,
                   node_store=PooledNodeStore(env.node_store, pool),
                   shared_models=env.object_store.shared_by(pool))


def run_serve(*, sessions: int = 8, seed: int = 7,
              scale: str = "small", eta: float = 0.001,
              frames: Optional[int] = None,
              scheme: Optional[str] = None,
              frame_budget_ms: Optional[float] = None,
              pool_pages: int = 256,
              plan: Optional[str] = None,
              fault_seed: int = 0) -> Dict[str, object]:
    """Serve ``sessions`` concurrent walkthroughs; returns the report.

    Parameters
    ----------
    sessions:
        Number of concurrent walkthrough sessions.
    seed:
        Draws each session's motion pattern; same seed, same report.
    scale / eta / frames / scheme:
        As in ``repro run`` / ``repro chaos``.
    frame_budget_ms:
        Simulated per-frame deadline; a session whose previous frame
        exceeded it degrades its next query to the root internal LoD.
    pool_pages:
        Shared buffer-pool capacity in pages; 0 serves unpooled (every
        session reads straight through ``pageio``, the sequential
        path's exact I/O behaviour).
    plan / fault_seed:
        Optional named fault plan installed beneath the storage layer,
        to prove the service degrades instead of deadlocking.

    Each session entry carries its full ``frame_times`` series (the CI
    diff wants maximum surface).
    """
    if sessions < 1:
        raise WalkthroughError(f"sessions must be >= 1, got {sessions}")
    if seed < 0:
        raise WalkthroughError(f"seed must be >= 0, got {seed}")
    if pool_pages < 0:
        raise WalkthroughError(
            f"pool_pages must be >= 0, got {pool_pages}")
    fault_plan = named_plan(plan) if plan is not None else None
    experiment = load_scale(scale)
    registry = MetricsRegistry()
    with use_registry(registry):
        env = build_world(experiment)
        pool = (BufferPool(pool_pages, name="serving")
                if pool_pages > 0 else None)

        # Motion patterns are drawn from the seed so a fleet of
        # sessions exercises all three of the paper's patterns.
        rng = np.random.default_rng(seed)
        m_sessions = registry.counter(names.SERVING_SESSIONS)
        served: List[ServingSession] = []
        for session_id in range(sessions):
            pattern = int(rng.integers(1, 4))
            path = session_path(experiment, env, pattern, frames)
            view = session_env(env, pool)
            served.append(ServingSession(
                session_id, path, view, eta=eta, scheme=scheme, pool=pool,
                cache_budget_bytes=experiment.visual_cache_budget_bytes))
            m_sessions.inc()

        scheduler = SessionScheduler(served,
                                     frame_budget_ms=frame_budget_ms)
        error: Optional[str] = None
        with injected_faults(env, fault_plan, fault_seed) as injector:
            try:
                scheduler.run()
            except ReproError as exc:
                # Only a fault the degradation ladder cannot absorb
                # lands here; the report says so instead of crashing.
                error = f"{type(exc).__name__}: {exc}"

        completed = error is None
        entries = [session_report(s) for s in served]
        reconciliation = reconcile_ios(entries, env)
        if pool is not None:
            reconciliation["pool_balanced"] = (
                sum(s.pool_hits for s in served) == pool.hits
                and sum(s.pool_misses for s in served) == pool.misses)
        report: Dict[str, object] = {
            "serve": {
                "scale": scale,
                "sessions": sessions,
                "seed": seed,
                "eta": eta,
                "scheme": served[0].delta.search.scheme.name,
                "frames": served[0].path.num_frames,
                "frame_budget_ms": frame_budget_ms,
                "pool_pages": pool_pages,
                "plan": fault_plan.name if fault_plan is not None else None,
                "fault_seed": fault_seed if fault_plan is not None else None,
            },
            "outcome": {
                "completed": completed,
                "error": error,
                "rounds": scheduler.rounds,
                "frames_served": scheduler.frames_served,
            },
            "sessions": entries,
            "pool": _pool_report(pool),
            "reconciliation": reconciliation,
        }
        if fault_plan is not None:
            report["faults"] = {
                "injected": dict(sorted(injector.injected.items())),
                "total_injected": injector.total_injected(),
                "frames_degraded_total":
                    registry.value(names.FRAMES_DEGRADED),
            }
        return report


def session_report(session: ServingSession) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "id": session.session_id,
        "path": session.path.name,
        "frames": len(session.frames),
        "queries": session.queries,
        "degraded_frames": session.degraded_frames(),
        "overload_degraded": session.overload_degraded,
        "light": session.light_total.to_dict(),
        "heavy": session.heavy_total.to_dict(),
        "pool": {
            "hits": session.pool_hits,
            "misses": session.pool_misses,
        },
        "fidelity_mean": session.fidelity_mean(),
    }
    if session.frames:
        stats = frame_time_stats([f.frame_ms for f in session.frames])
        entry["frame_ms"] = {
            "mean": stats.mean_ms,
            "variance": stats.variance,
            "max": stats.maximum_ms,
        }
    entry["frame_times"] = [f.frame_ms for f in session.frames]
    return entry


def _pool_report(pool: Optional[BufferPool]) -> Optional[Dict[str, object]]:
    if pool is None:
        return None
    stats = pool.stats()
    return {
        "capacity": stats.pop("capacity"),
        "policy_stats": pool.policy.stats(),
        "resident_pages": pool.resident_pages,
        **stats,
    }


def reconcile_ios(entries: Sequence[Mapping[str, Any]],
                  env: HDoVEnvironment) -> Dict[str, object]:
    """Per-session attribution must add up to the shared ledgers.

    ``entries`` are :func:`session_report` entries of every session that
    touched ``env`` (their ``light`` / ``heavy`` dicts), shared model
    reads included.  Integer I/O counts balance exactly (sessions step
    one at a time, so the snapshot/delta windows partition the shared
    counters); simulated ms balance within float-rounding tolerance.
    """
    ledgers: Dict[str, object] = {}
    off: Dict[str, List[str]] = {}
    for side, ledger in (("light", env.light_stats),
                         ("heavy", env.heavy_stats)):
        total = IOStats()
        for entry in entries:
            total += IOStats(**entry[side])
        ledgers[f"{side}_sessions"] = total.to_dict()
        ledgers[f"{side}_environment"] = ledger.to_dict()
        off[side] = unbalanced_fields(total.to_dict(), ledger.to_dict())
    return {
        **ledgers,
        "light_ios_balanced": set(off["light"]) <= {"simulated_ms"},
        "heavy_ios_balanced": set(off["heavy"]) <= {"simulated_ms"},
        "simulated_ms_balanced":
            "simulated_ms" not in off["light"] + off["heavy"],
    }
