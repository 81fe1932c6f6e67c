"""Multi-session serving tests: determinism, attribution, degradation.

The PR 5 acceptance bar: ``repro serve`` run twice with the same seed
yields byte-identical reports; a single unpooled session matches the
sequential ``VisualSystem`` path exactly; the shared pool's hit rate
grows with the session count; overload and fault pressure degrade
service instead of deadlocking it; and no product verb starts a
thread.
"""

import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.core.search import HDoVSearch
from repro.errors import WalkthroughError
from repro.experiments.config import get_scale
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.replay import build_world, injected_faults, session_path
from repro.serving import ServingSession, SessionScheduler, run_serve
from repro.serving.pooled import PooledNodeStore
from repro.serving.service import reconcile_ios, session_env, session_report
from repro.storage.buffer import BufferPool
from repro.storage.faults import FaultPlan, FaultRule
from repro.storage.pagedfile import PagedFile
from repro.walkthrough.visual import VisualSystem


@pytest.fixture(scope="module")
def serve_report():
    """One canonical run shared by the read-only assertions."""
    return run_serve(sessions=8, seed=7, frames=12)


def test_serve_same_seed_byte_identical(serve_report):
    again = run_serve(sessions=8, seed=7, frames=12)
    assert json.dumps(serve_report, sort_keys=False) \
        == json.dumps(again, sort_keys=False)


def test_no_product_verb_starts_a_thread(monkeypatch, tmp_path):
    """The premise of DESIGN.md §10, pinned, and its one guard: ``repro
    serve``, a scored scheduler run, ``profile``, ``chaos``, a serial
    ``precompute`` and one ``run`` experiment all complete on the
    calling thread and their books balance.  That is why no lock guards
    the pool, the files, the journal or the registry; a change that
    starts a thread has to say so here and bring its locks and its
    evidence."""
    def refuse(self):
        raise AssertionError(f"{self.name} was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)

    small = ["--scale", "small", "--frames", "4"]
    for verb in (["profile", *small], ["chaos", *small],
                 ["precompute", "--scale", "small", "--resolution", "8",
                  "--samples", "2", "--quiet"]):
        assert main([*verb, "--output", str(tmp_path / "report.json")]) == 0
    assert main(["run", "fig7", "--scale", "small"]) == 0

    served = run_serve(sessions=4, frames=6)
    assert served["outcome"]["completed"] is True
    assert served["reconciliation"]["pool_balanced"] is True
    assert served["reconciliation"]["light_ios_balanced"] is True

    experiment = get_scale("small")
    with use_registry(MetricsRegistry()):
        env = build_world(experiment)
        pool = BufferPool(64, name="no-thread")
        sessions = [
            ServingSession(i, session_path(experiment, env, 1 + i % 3, 6),
                           session_env(env, pool), eta=0.001, pool=pool,
                           evaluate_fidelity=True)
            for i in range(3)]
        SessionScheduler(sessions, workers=2).run()
    assert all(s.done and s.fidelity_mean() == s.fidelity_mean()
               for s in sessions)
    assert sum(s.pool_hits for s in sessions) == pool.hits
    assert sum(s.pool_misses for s in sessions) == pool.misses


#: ``replacement-ab``'s configuration: 32 sessions through 28 frames.
PRESSURE = {"sessions": 32, "frames": 24, "pool_pages": 28}


@pytest.mark.parametrize("config, reads", [
    pytest.param({}, False, id="2q"),
    pytest.param(PRESSURE, True, id="pressure-2q"),
    pytest.param({"plan": "aggressive", "fault_seed": 3}, False,
                 id="aggressive"),
])
def test_serve_report_is_the_same_with_recall_patched_out(monkeypatch,
                                                          config, reads):
    """Answering a repeated query from the pool's plan changes no byte
    of the report — per-session pool attribution, the pool block, the
    2Q tallies, the ledgers and the reconciliation included — against
    the same run whose ``recall`` answers nothing (patched here; there
    is no production switch).  The 8-session runs evict nothing; under
    ``replacement-ab``'s pressure, recalls read pages back."""
    pages_read = []                     # one entry per answered recall
    real_recall = BufferPool.recall

    def recall(pool, token, files):
        recalled = real_recall(pool, token, files)
        if recalled is not None:
            pages_read.append(recalled[1])
        return recalled

    config = {"sessions": 8, **config}
    monkeypatch.setattr(BufferPool, "recall", recall)
    replaying = run_serve(**config)
    assert pages_read and any(pages_read) == reads
    monkeypatch.setattr(BufferPool, "recall",
                        lambda pool, token, files: None)
    traversing = run_serve(**config)
    assert json.dumps(replaying, sort_keys=False) \
        == json.dumps(traversing, sort_keys=False)


def test_serve_reconciliation_balances(serve_report):
    reconciliation = serve_report["reconciliation"]
    assert reconciliation["light_ios_balanced"] is True
    assert reconciliation["heavy_ios_balanced"] is True
    assert reconciliation["simulated_ms_balanced"] is True
    assert reconciliation["pool_balanced"] is True


def test_serve_reconciliation_covers_seek_direction_split(serve_report):
    """The ledgers compare every counter, back/forward seeks included
    (they used to be dropped from the sums and from the comparison)."""
    reconciliation = serve_report["reconciliation"]
    for side in ("light", "heavy"):
        sessions = reconciliation[f"{side}_sessions"]
        environment = reconciliation[f"{side}_environment"]
        assert set(sessions) == set(environment)
        for field in ("back_seeks", "forward_seeks"):
            assert sessions[field] == environment[field]
        assert sessions["back_seeks"] + sessions["forward_seeks"] \
            == sessions["seeks"]
    assert sum(entry["light"]["back_seeks"]
               for entry in serve_report["sessions"]) \
        == reconciliation["light_environment"]["back_seeks"] > 0


def test_serve_report_shape(serve_report):
    assert serve_report["outcome"]["completed"] is True
    assert serve_report["outcome"]["error"] is None
    assert serve_report["outcome"]["frames_served"] == 8 * 12
    entries = serve_report["sessions"]
    assert [s["id"] for s in entries] == list(range(8))
    for entry in entries:
        assert entry["frames"] == 12
        assert len(entry["frame_times"]) == 12
        assert entry["queries"] >= 1
        assert entry["fidelity_mean"] == entry["fidelity_mean"]  # not NaN
    pool = serve_report["pool"]
    assert pool["hits"] + pool["misses"] > 0
    assert 0.0 <= pool["hit_rate"] <= 1.0


def test_serve_shared_pool_hit_rate_grows_with_sessions(serve_report):
    solo = run_serve(sessions=1, seed=7, frames=12)
    assert serve_report["pool"]["hit_rate"] > solo["pool"]["hit_rate"]


def test_serve_unpooled_single_session_matches_sequential_path():
    """sessions=1, pool off == the VisualSystem replay.

    Whole-``FrameRecord`` equality (fidelity, resident bytes, degraded,
    seek direction split included) is what licenses running one frame
    body for both paths.
    """
    frames = 12
    served = run_serve(sessions=1, seed=7, frames=frames, pool_pages=0)
    assert served["pool"] is None

    experiment = get_scale("small")
    budget = experiment.visual_cache_budget_bytes
    pattern = int(np.random.default_rng(7).integers(1, 4))
    with use_registry(MetricsRegistry()):
        env = build_world(experiment)
        path = session_path(experiment, env, pattern, frames)
        visual = VisualSystem(env, eta=0.001, cache_budget_bytes=budget)
        report = visual.run(path)

        twin = build_world(experiment)
        session = ServingSession(0, path, session_env(twin, None),
                                 eta=0.001, cache_budget_bytes=budget)
        SessionScheduler([session]).run()

    assert session.frames == report.frames
    assert any(f.back_seeks for f in report.frames)
    assert session.light_total == env.light_stats == twin.light_stats
    assert session.heavy_total == env.heavy_stats == twin.heavy_stats

    entry = served["sessions"][0]
    assert entry["path"] == path.name
    assert entry["frame_times"] == [f.frame_ms for f in report.frames]
    assert entry["light"] == env.light_stats.to_dict()
    assert entry["heavy"] == env.heavy_stats.to_dict()


# -- the heavy path: a page the server holds is read once -----------------


def _served(experiment, env, pool, sessions, frames):
    return [ServingSession(i, session_path(experiment, env, 1 + i % 3, frames),
                           session_env(env, pool), eta=0.001, pool=pool,
                           evaluate_fidelity=False)
            for i in range(sessions)]


def test_heavy_no_models_page_is_read_twice_without_a_budget(monkeypatch):
    """With no cache budget no session lets go of a model, so the
    server's shared table only grows: over 8 sessions and every round of
    a served run, no page of the models file is read twice."""
    pages = []
    read_page, read_run = PagedFile.read_page, PagedFile.read_run

    def spy_page(pfile, page_id):
        if pfile.name == "models":
            pages.append(page_id)
        return read_page(pfile, page_id)

    def spy_run(pfile, first, count):
        if pfile.name == "models":
            pages.extend(range(first, first + count))
        return read_run(pfile, first, count)

    experiment = get_scale("small")
    with use_registry(MetricsRegistry()):
        env = build_world(experiment)
        pool = BufferPool(256, name="heavy-once")
        sessions = _served(experiment, env, pool, 8, 12)
        monkeypatch.setattr(PagedFile, "read_page", spy_page)
        monkeypatch.setattr(PagedFile, "read_run", spy_run)
        SessionScheduler(sessions).run()
    assert pages and len(pages) == len(set(pages))
    assert sum(s.heavy_total.reads for s in sessions) == len(pages)


def test_heavy_pooled_single_session_equals_the_sequential_replay():
    """sessions=1 over a pool: the shared table has nobody to share
    with, so the served session equals a sequential replay over a pool
    of the same size whose view has no shared table (its models read
    through a table of its own) — every frame, both
    ledgers, the pool attribution and the fidelity."""
    frames = 12
    served = run_serve(sessions=1, seed=7, frames=frames)
    experiment = get_scale("small")
    pattern = int(np.random.default_rng(7).integers(1, 4))
    with use_registry(MetricsRegistry()):
        env = build_world(experiment)
        path = session_path(experiment, env, pattern, frames)
        pool = BufferPool(256, name="sequential")
        visual = VisualSystem(
            replace(session_env(env, pool), shared_models=None), eta=0.001,
            cache_budget_bytes=experiment.visual_cache_budget_bytes)
        report = visual.run(path)

    entry = served["sessions"][0]
    assert entry["path"] == path.name
    assert entry["frame_times"] == [f.frame_ms for f in report.frames]
    assert entry["light"] == env.light_stats.to_dict()
    assert entry["heavy"] == env.heavy_stats.to_dict()
    assert entry["pool"] == {"hits": pool.hits, "misses": pool.misses}
    assert entry["fidelity_mean"] == report.avg_fidelity()


def test_heavy_ios_balance_under_a_models_fault_plan():
    """Latency injected on the models file (the fault a model read
    lives through: a model page has no degraded form, so an error or a
    flipped bit fails its frame) is charged to the session whose read
    met it, shared reads or not: the heavy ledgers balance."""
    plan = FaultPlan("models", (
        FaultRule("latency", match="models", rate=0.5, latency_ms=12.0),))
    experiment = get_scale("small")
    with use_registry(MetricsRegistry()):
        env = build_world(experiment)
        pool = BufferPool(256, name="heavy-faults")
        sessions = _served(experiment, env, pool, 8, 12)
        with injected_faults(env, plan, 3) as injector:
            SessionScheduler(sessions).run()
    assert injector.injected["latency"] > 0
    reconciliation = reconcile_ios(
        [session_report(s) for s in sessions], env)
    assert reconciliation["heavy_ios_balanced"] is True
    assert reconciliation["simulated_ms_balanced"] is True


def test_heavy_tables_are_private_unless_a_pool_is_shared():
    """A viewer reads its models through a table of its own; the
    sessions of one pool share that pool's; unpooled sessions share
    nothing."""
    with use_registry(MetricsRegistry()):
        env = build_world(get_scale("small"))
    pool = BufferPool(16)
    assert env.models_table() is not env.models_table()
    assert session_env(env, None).shared_models is None
    assert (session_env(env, pool).models_table()
            is session_env(env, pool).models_table()
            is env.object_store.shared_by(pool))
    assert (session_env(env, BufferPool(16)).models_table()
            is not env.object_store.shared_by(pool))


def test_serve_overload_sheds_to_degraded_frames():
    report = run_serve(sessions=2, seed=7, frames=12, frame_budget_ms=10.0)
    assert report["outcome"]["completed"] is True
    shed = [s["overload_degraded"] for s in report["sessions"]]
    assert sum(shed) > 0
    # Shed frames answer from the root's internal LoD, so they are
    # recorded as degraded renders too.
    for entry in report["sessions"]:
        assert entry["degraded_frames"] >= entry["overload_degraded"]


def test_serve_under_faults_degrades_not_deadlocks():
    report = run_serve(sessions=4, seed=7, frames=12, plan="aggressive",
                       fault_seed=3)
    assert report["outcome"]["completed"] is True
    assert report["faults"]["total_injected"] > 0
    assert report["faults"]["frames_degraded_total"] > 0
    assert sum(s["degraded_frames"] for s in report["sessions"]) > 0
    reconciliation = report["reconciliation"]
    assert reconciliation["light_ios_balanced"] is True
    assert reconciliation["heavy_ios_balanced"] is True


def test_serve_rejects_bad_arguments():
    with pytest.raises(WalkthroughError):
        run_serve(sessions=0)
    with pytest.raises(WalkthroughError):
        run_serve(sessions=1, frame_budget_ms=0.0)
    with pytest.raises(WalkthroughError):
        run_serve(sessions=1, pool_pages=-1)
    with pytest.raises(WalkthroughError, match="seed must be >= 0"):
        run_serve(sessions=1, seed=-1)


def test_serve_cli_writes_deterministic_report(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    base = ["serve", "--sessions", "3", "--seed", "7", "--frames", "6"]
    assert main(base + ["--output", str(first)]) == 0
    assert main(base + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["outcome"]["completed"] is True
    assert report["serve"]["sessions"] == 3


def test_serve_cli_usage_error(capsys):
    assert main(["serve", "--sessions", "0"]) == 2
    assert "repro serve" in capsys.readouterr().err


def test_serve_unpooled(tmp_path):
    """``--pool-pages 0`` serves unpooled: the report has no pool."""
    report = run_serve(sessions=1, seed=7, frames=2, pool_pages=0)
    assert report["pool"] is None and report["serve"]["pool_pages"] == 0
    base = ["serve", "--sessions", "1", "--frames", "2", "--pool-pages", "0"]
    assert main(base + ["--output", str(tmp_path / "r.json")]) == 0


def test_serve_has_no_policy_option(capsys):
    """The pool is 2Q, not a choice (DESIGN.md, "2Q replacement"):
    ``--policy`` is an unknown option and exits 2."""
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--policy", "lru"])
    assert exit_info.value.code == 2
    assert "--policy" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    assert "policy" not in capsys.readouterr().out


class _StubSession:
    """The minimal surface SessionScheduler drives, without an env."""

    def __init__(self, session_id, frames):
        self.session_id = session_id
        self._remaining = frames
        self.last_frame_ms = 0.0

    @property
    def done(self):
        return self._remaining <= 0

    def step(self, *, shed_load=False):
        self._remaining -= 1
        return None

    def install_fidelity(self, fidelity):
        raise AssertionError("stub sessions never score")


def test_scheduler_zeroes_active_gauge_after_run():
    """Regression: ``SessionScheduler.run`` left the active-sessions
    gauge at the last round's count, so post-run scrapes showed phantom
    active sessions."""
    from repro.obs import names
    with use_registry(MetricsRegistry()) as registry:
        sessions = [_StubSession(i, frames=2 + i) for i in range(3)]
        scheduler = SessionScheduler(sessions)
        scheduler.run()
        assert scheduler.frames_served == sum(2 + i for i in range(3))
        assert registry.value(names.SERVING_ACTIVE_SESSIONS) == 0.0


def test_scheduler_zeroes_active_gauge_on_error():
    from repro.errors import ReproError
    from repro.obs import names
    class _ExplodingSession(_StubSession):
        def step(self, *, shed_load=False):
            raise ReproError("boom")

    with use_registry(MetricsRegistry()) as registry:
        scheduler = SessionScheduler([_ExplodingSession(0, frames=1)])
        with pytest.raises(ReproError):
            scheduler.run()
        assert registry.value(names.SERVING_ACTIVE_SESSIONS) == 0.0


# -- the node store behind a private pool -------------------------------------

def test_cached_node_store_matches_plain(env):
    cached = PooledNodeStore(env.node_store, BufferPool(16))
    for offset in range(env.node_store.num_nodes):
        plain = env.node_store.read_node(offset)
        via_cache = cached.read_node(offset)
        assert via_cache.node_offset == plain.node_offset
        assert via_cache.level == plain.level
        assert len(via_cache.entries) == len(plain.entries)


def test_cached_node_store_saves_io(env):
    cached = PooledNodeStore(env.node_store, BufferPool(64))
    env.reset_stats()
    cached.read_node(0)
    first = env.light_stats.reads
    cached.read_node(0)
    assert env.light_stats.reads == first     # hit: no disk charge
    assert cached.pool.hit_rate > 0


def test_cached_search_equivalent(env):
    plain = HDoVSearch(env, "indexed-vertical", fetch_models=False)
    busiest = max(env.grid.cell_ids(),
                  key=lambda c: env.visibility.cell(c).num_visible)
    expected = plain.query_cell(busiest, 0.0)

    original = env.node_store
    try:
        env.node_store = PooledNodeStore(original, BufferPool(64))
        cached_search = HDoVSearch(env, "indexed-vertical",
                                   fetch_models=False)
        result = cached_search.query_cell(busiest, 0.0)
    finally:
        env.node_store = original
    assert result.object_ids() == expected.object_ids()
