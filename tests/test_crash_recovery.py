"""Crash-matrix harness tests: determinism, atomicity, idempotence.

The harness itself is the property suite — it enumerates every I/O
boundary of the workload (and of recovery) and checks the atomicity
and idempotence invariants at each one.  These tests run it (its shape
is fixed: ``PAGES`` x ``PAGE_SIZE``, ``TXNS`` x ``WRITES_PER_TXN``),
assert it found no violations, and pin down the properties the CI
crash job relies on: byte-identical reports for a fixed seed, full
boundary coverage and a nonzero nested recovery sweep.
"""

import json

import pytest

from repro.obs.crash import run_crash_sweep


@pytest.fixture(scope="module")
def sweep():
    return run_crash_sweep(seed=0)


def test_sweep_finds_no_violations(sweep):
    assert sweep["violations"] == []
    assert sweep["summary"]["ok"] is True
    assert sweep["summary"]["points"] == sweep["crash"]["boundaries"] > 0
    assert sweep["summary"]["recovery_points"] > 0


def test_sweep_report_is_byte_deterministic():
    first = json.dumps(run_crash_sweep(seed=0), indent=2, sort_keys=True)
    second = json.dumps(run_crash_sweep(seed=0), indent=2, sort_keys=True)
    assert first == second


def test_sweep_enumerates_every_boundary_kind(sweep):
    kinds = {label.split(":", 1)[0] for label in sweep["crash"]["labels"]}
    assert kinds == {"read", "write", "journal-commit", "journal-sync",
                     "checkpoint-write", "data-sync", "journal-reset"}


def test_every_point_is_atomic_and_idempotent(sweep):
    assert len(sweep["sweep"]) == sweep["crash"]["boundaries"]
    for entry in sweep["sweep"]:
        assert entry["atomic"], entry
        assert entry["idempotent"], entry
        assert entry["recovery_crash"]["converged"], entry
        # Recovered state never regresses below the durable commits...
        assert entry["recovered_state"] >= entry["durable_commits"]
        # ...and never invents a commit whose marker was never appended.
        assert entry["recovered_state"] <= entry["appended_commits"]


def test_recovery_replay_and_truncation_both_exercised(sweep):
    assert any(e["pages_replayed"] > 0 for e in sweep["sweep"])
    assert any(e["tail_truncated_bytes"] > 0 for e in sweep["sweep"])
    metrics = sweep["metrics"]
    assert metrics["recovery_pages_replayed_total"] > 0
    assert metrics["recovery_tail_truncations_total"] > 0
    assert metrics["journal_records_total"] > 0
    assert metrics["journal_commits_total"] > 0
    # One crash per sweep point plus one per nested recovery point.
    assert metrics["crashes_injected_total"] == \
        sweep["summary"]["points"] + sweep["summary"]["recovery_points"]


def test_different_seed_different_payloads_same_invariants():
    other = run_crash_sweep(seed=9)
    assert other["summary"]["ok"] is True
    assert other["crash"]["seed"] == 9
