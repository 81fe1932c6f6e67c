"""Three-way baseline comparison (VISUAL / REVIEW / LoD-R-tree)."""

import pytest

from repro.experiments.baseline_comparison import run_baseline_comparison
from repro.experiments.config import SMALL
from repro.walkthrough.session import make_session
from repro.walkthrough.visual import LodRTreeWalkthrough


@pytest.fixture(scope="module")
def comparison():
    return run_baseline_comparison(SMALL, eta=0.002)


def test_visual_fastest_everywhere(comparison):
    for number, per_system in comparison.rows.items():
        visual_ms = per_system["VISUAL"][0]
        assert visual_ms < per_system["REVIEW"][0]
        assert visual_ms < per_system["LoD-R-tree"][0]


def test_visual_best_fidelity(comparison):
    for per_system in comparison.rows.values():
        visual_fid = per_system["VISUAL"][1]
        assert visual_fid >= per_system["REVIEW"][1] - 1e-9
        assert visual_fid >= per_system["LoD-R-tree"][1] - 1e-9


def test_lod_rtree_degenerates_on_turning(comparison):
    """Section 2's claim: performance degenerates as the view changes.
    The LoD-R-tree's turning penalty exceeds both other systems'."""
    lod_penalty = comparison.turning_penalty("LoD-R-tree")
    assert lod_penalty > comparison.turning_penalty("VISUAL")
    assert lod_penalty > comparison.turning_penalty("REVIEW")
    assert lod_penalty > 1.0


def test_lod_rtree_fidelity_drops_when_turning(comparison):
    """Frustum-only retrieval cannot show what is behind the viewer."""
    fid_normal = comparison.rows[1]["LoD-R-tree"][1]
    fid_turning = comparison.rows[2]["LoD-R-tree"][1]
    assert fid_turning < fid_normal


def test_format_table(comparison):
    out = comparison.format_table()
    assert "session 2 (turning)" in out
    assert "LoD-R-tree" in out


def test_driver_produces_frames(env):
    session = make_session(1, env.scene.bounds(), num_frames=20)
    driver = LodRTreeWalkthrough(env, depth=300.0)
    report = driver.run(session)
    assert len(report.frames) == 20
    queried = [f for f in report.frames if f.total_ios > 0]
    assert queried
