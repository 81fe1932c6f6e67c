"""Tests for the HTTP front-end (``repro.serving.http``).

Covers the session lifecycle over the async app, the error-to-status
ladder, the timing middleware's accounting, parity between the HTTP
path and the in-process ``SessionScheduler`` on the deterministic
report subset, and health degradation under an injected fault plan.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import WalkthroughError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serving import run_serve
from repro.serving.http import (HttpRequest, WalkthroughApp, build_service,
                                percentile)
from repro.serving.http.app import MAX_SESSION_FRAMES, WalkthroughService
from repro.serving.http.stats import latency_summary
from repro.storage.faults import FaultInjector, named_plan

SCALE = "small"
FRAMES = 8


def dispatch(app, method, path, body=None):
    return asyncio.run(app.dispatch(HttpRequest(method, path, body)))


@pytest.fixture(scope="module")
def app():
    with use_registry(MetricsRegistry()):
        service = build_service(scale=SCALE, frames=FRAMES, max_active=3)
        yield WalkthroughApp(service)


# -- lifecycle over the app -------------------------------------------------


def test_session_lifecycle(app):
    created = dispatch(app, "POST", "/sessions", {"pattern": 2})
    assert created.status == 201
    session_id = created.body["id"]
    assert created.body["pattern"] == 2
    assert created.body["frames"] == FRAMES

    listed = dispatch(app, "GET", "/sessions")
    assert session_id in [s["id"] for s in listed.body["sessions"]]

    for index in range(FRAMES):
        stepped = dispatch(app, "POST", f"/sessions/{session_id}/step")
        assert stepped.status == 200
        assert stepped.body["stepped"] is True
        assert stepped.body["frame_index"] == index
        assert stepped.body["frame_ms"] > 0
    assert stepped.body["done"] is True

    # Stepping a finished session is answered, not an error.
    extra = dispatch(app, "POST", f"/sessions/{session_id}/step")
    assert extra.status == 200
    assert extra.body["stepped"] is False

    closed = dispatch(app, "DELETE", f"/sessions/{session_id}")
    assert closed.status == 200
    assert closed.body["frames"] == FRAMES
    assert closed.body["done"] is True
    assert session_id not in app.service.sessions


def test_error_status_ladder(app):
    assert dispatch(app, "GET", "/sessions/99999").status == 404
    assert dispatch(app, "POST", "/sessions/99999/step").status == 404
    assert dispatch(app, "DELETE", "/sessions/99999").status == 404
    assert dispatch(app, "POST", "/sessions",
                    {"pattern": 7}).status == 400
    assert dispatch(app, "POST", "/sessions",
                    {"pattern": "one"}).status == 400
    assert dispatch(app, "GET", "/nope").status == 404


@pytest.mark.parametrize("body", [[], 0, "", False, "x", [1]],
                         ids=["empty-list", "zero", "empty-string", "false",
                              "string", "list"])
def test_a_body_that_is_not_an_object_is_refused(app, body):
    """A JSON body that is not an object is a 400 that allocates no
    session — a falsy one is not read as ``{}``, and no other one
    reaches ``.get``."""
    created = app.service.sessions_created
    live = dict(app.service.sessions)
    response = dispatch(app, "POST", "/sessions", body)
    assert response.status == 400
    assert "body must be a JSON object" in response.body["error"]
    assert app.service.sessions_created == created
    assert app.service.sessions == live


def test_frames_are_capped_at_the_edge(app):
    """A create builds all its waypoints before it answers, so a length
    a request chose could exhaust the server.  The body's ``"frames"``
    is not read: every session is the service's length, and the service
    refuses a length over the cap."""
    for frames in ("x", MAX_SESSION_FRAMES + 1):
        created = dispatch(app, "POST", "/sessions",
                           {"pattern": 1, "frames": frames})
        assert created.status == 201
        assert created.body["frames"] == FRAMES
        session_id = created.body["id"]
        assert dispatch(app, "DELETE",
                        f"/sessions/{session_id}").status == 200
    with pytest.raises(WalkthroughError, match="frames must be in"):
        WalkthroughService(app.service.env, app.service.experiment,
                           frames=MAX_SESSION_FRAMES + 1)


def test_overload_sheds_with_503(app):
    created = []
    try:
        while True:
            response = dispatch(app, "POST", "/sessions", {"pattern": 1})
            if response.status == 503:
                assert response.body["shed"] is True
                break
            created.append(response.body["id"])
            assert len(created) <= 3, "admission cap never enforced"
    finally:
        for session_id in created:
            dispatch(app, "DELETE", f"/sessions/{session_id}")
    assert app.service.sessions_shed >= 1


def test_middleware_assigns_request_ids_and_counts(app):
    before = app.collector.total_requests
    first = dispatch(app, "GET", "/healthz")
    second = dispatch(app, "GET", "/healthz")
    assert app.collector.total_requests == before + 2
    first_id = int(first.headers["x-request-id"])
    second_id = int(second.headers["x-request-id"])
    assert second_id == first_id + 1
    counts = app.collector.request_counts()
    assert counts["GET /healthz"]["requests"] >= 2
    assert counts["GET /healthz"]["errors"] == 0
    summary = app.collector.wall_latency()["GET /healthz"]
    assert summary["p50"] >= 0.0
    assert summary["max"] >= summary["p50"]


def test_stats_and_metrics_endpoints(app):
    stats = dispatch(app, "GET", "/stats")
    assert stats.status == 200
    assert stats.body["sessions_created"] == app.service.sessions_created
    assert "GET /healthz" in stats.body["http"]["requests"]
    metrics = dispatch(app, "GET", "/metrics")
    assert metrics.status == 200
    assert any(key.startswith(names.HTTP_REQUESTS)
               for key in metrics.body["metrics"])


# -- parity with the in-process scheduler -----------------------------------


def test_http_path_matches_scheduler_report():
    """Concurrent create/step over the shared pool must reproduce the
    ``SessionScheduler`` per-session reports field-for-field.

    The reference run serves N sessions through ``run_serve``; the HTTP
    side creates the same sessions (same seed-drawn patterns) and steps
    them in scheduler order — each round fanned out as concurrent
    dispatches, serialized only by the app's lock.  Everything in the
    deterministic per-session report must coincide.
    """
    sessions, seed, frames = 4, 3, 10
    reference = run_serve(sessions=sessions, seed=seed,
                          scale=SCALE, frames=frames)
    # The close route leaves the frame-time series out.
    expected = [{key: value for key, value in entry.items()
                 if key != "frame_times"}
                for entry in reference["sessions"]]

    with use_registry(MetricsRegistry()):
        service = build_service(scale=SCALE, frames=frames,
                                evaluate_fidelity=True)
        app = WalkthroughApp(service)
        rng = np.random.default_rng(seed)
        patterns = [int(rng.integers(1, 4)) for _ in range(sessions)]

        async def drive():
            ids = []
            for pattern in patterns:
                response = await app.dispatch(HttpRequest(
                    "POST", "/sessions", {"pattern": pattern}))
                assert response.status == 201
                ids.append(response.body["id"])
            live = list(ids)
            while live:
                # One scheduler round: every live session steps, the
                # dispatches issued concurrently (the app's lock is
                # FIFO, so ascending-id order is preserved).
                responses = await asyncio.gather(*[
                    app.dispatch(HttpRequest(
                        "POST", f"/sessions/{sid}/step"))
                    for sid in live])
                for response in responses:
                    assert response.status == 200
                live = [sid for sid, r in zip(live, responses)
                        if not r.body["done"]]
            reports = []
            for sid in ids:
                closed = await app.dispatch(HttpRequest(
                    "DELETE", f"/sessions/{sid}"))
                assert closed.status == 200
                reports.append(closed.body)
            return reports

        actual = asyncio.run(drive())

    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        got = dict(got)
        assert got.pop("done") is True
        assert got == want


def test_heavy_holds_leave_with_closed_sessions():
    """The server's shared model table counts live sessions only: a
    closed session's models leave it, so once every session is closed
    it holds nothing."""
    with use_registry(MetricsRegistry()):
        service = build_service(scale=SCALE, frames=FRAMES)
        table = service.env.object_store.shared_by(service.pool)
        ids = [service.create_session(pattern)["id"]
               for pattern in (1, 2, 3)]
        for _ in range(FRAMES):
            for session_id in ids:
                service.step_session(session_id)
        assert len(table) > 0
        for session_id in ids:
            service.close_session(session_id)
        assert len(table) == 0


# -- health under faults ----------------------------------------------------


def test_health_degrades_under_faults_instead_of_erroring():
    with use_registry(MetricsRegistry()):
        service = build_service(scale=SCALE, frames=20)
        app = WalkthroughApp(service)
        assert dispatch(app, "GET", "/healthz").body["status"] == "ok"

        injector = FaultInjector(named_plan("aggressive"), seed=3)
        injector.install(*service.env.files())
        try:
            for pattern in (1, 2, 3):
                created = dispatch(app, "POST", "/sessions",
                                   {"pattern": pattern})
                assert created.status == 201
                session_id = created.body["id"]
                for _ in range(20):
                    stepped = dispatch(
                        app, "POST", f"/sessions/{session_id}/step")
                    # The promise under test: faults degrade fidelity,
                    # they never turn into HTTP errors.
                    assert stepped.status == 200
        finally:
            injector.uninstall()

        assert injector.total_injected() > 0
        health = dispatch(app, "GET", "/healthz")
        assert health.status == 200
        assert health.body["status"] == "degraded"
        assert (health.body["frames_degraded"] > 0
                or health.body["pages_corrupt"] > 0
                or health.body["io_giveups"] > 0)


# -- percentile helpers -----------------------------------------------------


def test_percentile_nearest_rank():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 0.0) == 10.0
    assert percentile(samples, 50.0) == 20.0
    assert percentile(samples, 75.0) == 30.0
    assert percentile(samples, 100.0) == 40.0
    assert percentile([], 50.0) == 0.0
    with pytest.raises(ValueError):
        percentile(samples, 101.0)


def test_latency_summary_shape():
    summary = latency_summary([5.0, 1.0, 3.0])
    assert summary["p50"] == 3.0
    assert summary["max"] == 5.0
    assert summary["mean"] == pytest.approx(3.0)
    assert set(summary) == {"p50", "p95", "p99", "mean", "max"}
