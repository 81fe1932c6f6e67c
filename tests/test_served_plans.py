"""A recalled plan is served whole (DESIGN.md §10 "Query plans").

A query's answer is remembered by the pool as one immutable value — the
answer tuples, the Figure-3 tallies, the polygon total — and a flip's
decoded index segment as another.  Every session that recalls the plan
takes them as they are; the fidelity score derived from the answer is
worked out once per plan and rides on it.  Here, per scheme and codec:

* a served run with recalls equals its twin whose ``recall`` answers
  nothing, frame record for frame record (fidelity, polygons, resident
  bytes), in both ledgers, per session and in the environment;
* the score is derived once per remembered plan, and once per query
  that has none;
* nothing derived from a plan stays reachable from the environment once
  the pool is cleared or dropped.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.core.search import PlanAnswer
from repro.serving.scheduler import SessionScheduler
from repro.serving.service import session_env
from repro.serving.session import ServingSession
from repro.storage.buffer import BufferPool
from repro.walkthrough.metrics import FidelityMetric
from repro.walkthrough.session import make_session

BUILDS = [("env", "horizontal"), ("env", "vertical"),
          ("env", "indexed-vertical"), ("env_packed", "vertical"),
          ("env_packed", "indexed-vertical")]
ETA = 0.001
#: Two sessions per motion pattern: every path is walked twice, so the
#: second walker's queries and flips are recalls.
SESSIONS, FRAMES = 6, 40

REAL_RECALL, REAL_REMEMBER = BufferPool.recall, BufferPool.remember


def spy_pool(monkeypatch, *, replaying=True):
    """Install a ``recall`` / ``remember`` spy: what was recalled, per
    kind, and every remembered value.  ``replaying=False`` makes
    ``recall`` answer nothing."""
    seen = {"recalled": Counter(), "remembered": []}

    def recall(pool, token, files):
        recalled = REAL_RECALL(pool, token, files) if replaying else None
        if recalled is not None:
            seen["recalled"][type(recalled[0]).__name__] += 1
        return recalled

    def remember(pool, token, keys, answer):
        seen["remembered"].append((token, answer))
        return REAL_REMEMBER(pool, token, keys, answer)

    monkeypatch.setattr(BufferPool, "recall", recall)
    monkeypatch.setattr(BufferPool, "remember", remember)
    return seen


def serve(env, scheme):
    """``SESSIONS`` sessions through one pool, from cold."""
    env.reset_runtime_state()
    pool = BufferPool(4096, name=f"plans-{scheme}")
    bounds = env.scene.bounds()
    sessions = [ServingSession(i, make_session(1 + i % 3, bounds,
                                               num_frames=FRAMES),
                               session_env(env, pool), eta=ETA,
                               scheme=scheme, pool=pool)
                for i in range(SESSIONS)]
    SessionScheduler(sessions).run()
    return pool, sessions


def observed(env, pool, sessions):
    return {"frames": [s.frames for s in sessions],
            "sessions": [(s.light_total.to_dict(), s.heavy_total.to_dict(),
                          s.pool_hits, s.pool_misses) for s in sessions],
            "light": env.light_stats.to_dict(),
            "heavy": env.heavy_stats.to_dict(),
            "pool": pool.stats(), "order": pool.policy.keys()}


@pytest.mark.parametrize("fixture, scheme", BUILDS)
def test_a_served_run_with_recalls_equals_its_twin(request, monkeypatch,
                                                   fixture, scheme):
    env = request.getfixturevalue(fixture)
    spy_pool(monkeypatch, replaying=False)
    twin = observed(env, *serve(env, scheme))
    seen = spy_pool(monkeypatch)
    served = observed(env, *serve(env, scheme))
    # Recalls happened: raw V-pages name their pages, so queries are
    # planned; every segment scheme's flips are.
    recalled = seen["recalled"]
    assert recalled["PlanAnswer"] > 0 if fixture == "env" \
        else recalled["PlanAnswer"] == 0
    assert (recalled["dict"] > 0) == (scheme != "horizontal")
    # Frame records compare every field by ``==``: fidelity, polygons,
    # resident bytes, both I/O deltas, frame time.
    for frames, twin_frames in zip(served["frames"], twin["frames"]):
        assert frames == twin_frames
    assert served == twin


@pytest.mark.parametrize("fixture, scheme", BUILDS)
def test_the_score_is_derived_once_per_plan(request, monkeypatch, fixture,
                                            scheme):
    env = request.getfixturevalue(fixture)
    seen = spy_pool(monkeypatch)
    derived = Counter()             # plan (None: no plan) -> derivations
    real_score = FidelityMetric._score

    def score(metric, result):
        derived[result.plan] += 1
        return real_score(metric, result)

    monkeypatch.setattr(FidelityMetric, "_score", score)
    pool, sessions = serve(env, scheme)
    plans = [answer for _token, answer in seen["remembered"]
             if isinstance(answer, PlanAnswer)]
    queries = sum(s.queries for s in sessions)
    unplanned = derived.pop(None, 0)
    # One derivation per remembered plan, by identity, and one per query
    # that has no plan: fewer than the queries wherever plans are made.
    assert sorted(map(id, derived)) == sorted(map(id, plans))
    assert set(derived.values()) <= {1}
    assert unplanned + len(plans) <= queries
    if fixture == "env":
        assert len(plans) > 0 and unplanned + len(plans) < queries
    else:
        assert plans == [] and unplanned == queries
    for plan in plans:
        assert plan.fidelity is not None


@pytest.mark.parametrize("how", ["clear", "drop"])
@pytest.mark.parametrize("fixture, scheme", BUILDS)
def test_nothing_derived_outlives_the_plan(request, monkeypatch, fixture,
                                           scheme, how):
    env = request.getfixturevalue(fixture)
    seen = spy_pool(monkeypatch)
    pool, sessions = serve(env, scheme)
    views = [s.env for s in sessions]
    answers = [weakref.ref(answer) for _token, answer in seen["remembered"]
               if isinstance(answer, PlanAnswer)]
    tokens = [token for token, _answer in seen["remembered"]]
    assert tokens and (answers or fixture == "env_packed")
    truth = {cell: entry for cell, entry in env.fidelity_truth.items()}
    # The served frames' answers, and the spy's copies.
    del sessions
    seen["remembered"].clear()
    if how == "clear":
        pool.clear()
        # The views and the pool live on; no plan of either kind does.
        assert all(REAL_RECALL(pool, token, ()) is None for token in tokens)
        assert all(view.scheme(scheme).page_cache is pool for view in views)
    else:
        del pool, views
    gc.collect()
    assert [ref for ref in answers if ref() is not None] == []
    # The ground truth is build-time data, kept: no score went into it.
    assert env.fidelity_truth == truth
