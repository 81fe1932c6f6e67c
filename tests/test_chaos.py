"""Chaos harness tests: survive, degrade, reproduce.

The PR 3 acceptance bar: under a seeded fault plan a recorded
walkthrough completes 100% of its frames with degradations recorded and
zero unhandled exceptions, and the same seed yields the identical
report.
"""

import json

import pytest

from repro.cli import main
from repro.errors import StorageError
from repro.obs.chaos import run_chaos
from repro.storage import faults
from repro.storage.faults import FaultPlan, FaultRule


def test_chaos_survives_and_degrades():
    report = run_chaos(frames=20, plan="aggressive", seed=7)
    outcome = report["outcome"]
    assert outcome["completed"] is True
    assert outcome["error"] is None
    assert outcome["frames_survived"] == outcome["frames_total"] == 20
    resilience = report["resilience"]
    assert resilience["degraded_frames"] > 0
    assert resilience["frames_degraded_total"] > 0
    assert sum(resilience["retries"].values()) > 0
    assert report["faults"]["total_injected"] > 0
    # Degrading costs fidelity, never gains it.
    fidelity = report["fidelity"]
    assert fidelity["faulted"] <= fidelity["clean"]
    # The invariants block is what the CLI turns into an exit code.
    assert report["invariants"] == {"completed": True,
                                    "fidelity_not_improved": True,
                                    "ok": True}


def test_chaos_same_seed_identical_report():
    first = run_chaos(frames=10, plan="aggressive", seed=0)
    second = run_chaos(frames=10, plan="aggressive", seed=0)
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True)


def test_chaos_blackout_plan_gives_up_but_survives():
    report = run_chaos(plan="vpage-blackout", seed=0)
    assert report["outcome"]["completed"] is True
    resilience = report["resilience"]
    assert resilience["degraded_frames"] > 0
    assert sum(resilience["giveups"].values()) > 0


def test_chaos_compressed_build_survives():
    """Faults landing on packed delta records must degrade through the
    same ladder as raw pages — never decode silently wrong."""
    report = run_chaos(frames=20, plan="aggressive", seed=7,
                       compress=True)
    assert report["chaos"]["compress"] is True
    assert report["faults"]["total_injected"] > 0
    assert report["invariants"]["ok"] is True


def test_chaos_compressed_same_seed_identical_report():
    first = run_chaos(frames=10, plan="aggressive", seed=3, compress=True)
    second = run_chaos(frames=10, plan="aggressive", seed=3, compress=True)
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True)


def test_chaos_compressed_loop_session_survives():
    report = run_chaos(frames=20, plan="aggressive", seed=1, session=4,
                       compress=True)
    assert report["chaos"]["session"] == "session-4-loop"
    assert report["invariants"]["ok"] is True


def test_chaos_unknown_plan_raises_before_building():
    with pytest.raises(StorageError):
        run_chaos(plan="no-such-plan")


def test_chaos_node_store_fault_is_reported_not_raised(monkeypatch):
    """A plan the ladder cannot absorb (R-tree node loss) still yields
    a report — completed=False with the error named — not a crash."""
    kill_tree = FaultPlan("kill-tree", (
        FaultRule("read-error", match="tree", rate=1.0),
    ))
    monkeypatch.setitem(faults._NAMED_PLANS, "kill-tree", kill_tree)
    report = run_chaos(frames=5, plan="kill-tree", seed=0)
    outcome = report["outcome"]
    assert outcome["completed"] is False
    assert "TransientIOError" in outcome["error"]
    assert outcome["frames_survived"] < outcome["frames_total"]


# -- CLI ---------------------------------------------------------------------


def test_cli_chaos_unknown_plan_is_usage_error(capsys):
    code = main(["chaos", "--plan", "no-such-plan"])
    assert code == 2
    assert "unknown fault plan" in capsys.readouterr().err


def test_cli_chaos_list_plans(capsys):
    code = main(["chaos", "--list-plans"])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("aggressive", "slow-disk", "vpage-blackout"):
        assert name in out
