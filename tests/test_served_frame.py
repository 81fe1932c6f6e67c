"""What a served frame does not recompute: its window, its cell, its span.

* A frame that reuses the previous answer opens no accounting window:
  its record carries zero I/O, and every charge still lands in exactly
  one query frame's window.  An outer window taken around every frame
  (what each frame booked when all of them opened one) must agree.
* ``CellGrid.cell_of_point`` reads two floats of any point form.
* A disabled recorder's ``span`` is a shared null context.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import VisibilityError
from repro.experiments.config import get_scale
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.replay import build_world, injected_faults, session_path
from repro.obs.trace import TraceRecorder
from repro.serving import ServingSession, SessionScheduler
from repro.serving.service import session_env
from repro.storage.buffer import BufferPool
from repro.storage.disk import IOStats
from repro.storage.faults import named_plan
from repro.visibility.cells import CellGrid
from repro.walkthrough.session import make_session
from repro.walkthrough.visual import VisualSystem


# -- the frame window ----------------------------------------------------------

class _OuterWindow:
    """An accounting window around every frame, query or not."""

    windows: list

    def _frame(self, index, position, **kwargs):
        snap = self.env.snapshot()
        queries = self.queries
        thunk = super()._frame(index, position, **kwargs)
        light, heavy = self.env.delta(snap)
        self.windows.append((self.queries != queries, light, heavy))
        return thunk


class WindowedVisual(_OuterWindow, VisualSystem):
    pass


class WindowedSession(_OuterWindow, ServingSession):
    pass


def _check_windows(system) -> int:
    """Every record equals its outer window; a frame that did not query
    booked nothing.  Returns the number of non-query frames."""
    assert len(system.windows) == len(system.frames)
    idle = 0
    for (queried, light, heavy), record in zip(system.windows,
                                               system.frames):
        assert record.light_ios == light.total_ios
        assert record.heavy_ios == heavy.total_ios
        assert record.io_ms == light.simulated_ms + heavy.simulated_ms
        if not queried:
            idle += 1
            assert light == heavy == IOStats()
            assert record.light_ios == record.heavy_ios == 0
            assert record.io_ms == 0
    return idle


def _summed(parts) -> IOStats:
    total = IOStats()
    for part in parts:
        total += part
    return total


def test_a_replay_frame_without_a_query_opens_no_window(env):
    visual = WindowedVisual(env, eta=0.001)
    visual.windows = []
    visual.run(make_session(2, env.scene.bounds(), num_frames=40))
    assert _check_windows(visual) > 0
    assert visual.queries > 1
    assert visual.light_total == env.light_stats
    assert visual.heavy_total == env.heavy_stats


def _served_round(plan=None):
    experiment = get_scale("small")
    registry = MetricsRegistry()
    with use_registry(registry):
        env = build_world(experiment)
        pool = BufferPool(64, name="window")
        sessions = [
            WindowedSession(i, session_path(experiment, env, 1 + i % 3, 24),
                            session_env(env, pool), eta=0.001, pool=pool)
            for i in range(4)]
        for session in sessions:
            session.windows = []
        with injected_faults(env, plan, 3) as injector:
            SessionScheduler(sessions, frame_budget_ms=30.0).run()
    return env, sessions, registry, injector


@pytest.mark.parametrize("plan", (None, "transient-reads"))
def test_a_served_frame_without_a_query_opens_no_window(plan):
    env, sessions, registry, injector = _served_round(
        named_plan(plan) if plan else None)
    assert sum(_check_windows(s) for s in sessions) > 0
    assert sum(s.overload_degraded for s in sessions) > 0
    assert _summed(s.light_total for s in sessions) == env.light_stats
    assert _summed(s.heavy_total for s in sessions) == env.heavy_stats
    degraded = sum(s.degraded_frames() for s in sessions)
    assert 0 < degraded == registry.total(names.FRAMES_DEGRADED)
    if plan:
        assert injector.total_injected() > 0


# -- the cell lookup -------------------------------------------------------------

GRID = CellGrid(origin=(-10.0, 5.0), cell_size=7.5, cells_x=4, cells_y=3)


def _parent_cell(grid: CellGrid, point) -> int:
    """The lookup as an ndarray computation (the form it replaced)."""
    p = np.asarray(point, dtype=np.float64)
    ix = min(max(int((p[0] - grid.origin[0]) / grid.cell_size), 0),
             grid.cells_x - 1)
    iy = min(max(int((p[1] - grid.origin[1]) / grid.cell_size), 0),
             grid.cells_y - 1)
    return ix * grid.cells_y + iy


def _coordinates(origin: float, cells: int):
    edges = [origin + k * GRID.cell_size for k in range(cells + 1)]
    out = [origin - 100.0, origin + cells * GRID.cell_size + 100.0]
    for edge in edges:
        out += [edge, math.nextafter(edge, -math.inf),
                math.nextafter(edge, math.inf), edge + 0.3]
    return out


def test_cell_of_point_is_the_same_for_every_point_form():
    seen = set()
    for x in _coordinates(GRID.origin[0], GRID.cells_x):
        for y in _coordinates(GRID.origin[1], GRID.cells_y):
            expected = _parent_cell(GRID, (x, y, 1.7))
            seen.add(expected)
            for point in ((x, y, 1.7), [x, y, 1.7], np.array([x, y, 1.7]),
                          (x, y)):
                assert GRID.cell_of_point(point) == expected
    assert seen == set(GRID.cell_ids())


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("form", (tuple, list, np.array))
def test_cell_of_point_refuses_non_finite_coordinates(bad, form):
    for point in ((bad, 1.0, 1.7), (1.0, bad, 1.7)):
        with pytest.raises(VisibilityError, match="must be finite"):
            GRID.cell_of_point(form(point))


# -- the disabled span -----------------------------------------------------------

def test_a_disabled_span_yields_none_and_records_nothing():
    tracer = TraceRecorder(enabled=False)
    assert tracer.span("a") is tracer.span("b", cell=1)
    with tracer.span("outer") as outer:
        with tracer.span("inner", cell=3) as inner:
            assert outer is None and inner is None
    assert tracer.records == [] and tracer.dropped == 0

    tracer.enabled = True
    with tracer.span("outer") as outer:
        with tracer.span("inner", cell=3) as inner:
            inner.attrs["queried"] = True
    assert [r.name for r in tracer.records] == ["outer", "inner"]
    assert inner.parent == outer.index and inner.depth == 1
    assert inner.attrs == {"cell": 3, "queried": True}
    assert outer.child_ms == inner.duration_ms
