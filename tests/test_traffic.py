"""Tests for the traffic harness (``repro.serving.loadgen``) and the
``repro traffic`` CLI command.

The load-bearing property: for a fixed seed the ``traffic`` and
``deterministic`` report sections are byte-identical across runs —
the virtual clock, the pre-drawn arrival/pattern randomness and the
strictly sequential dispatch leave no machine-dependent residue.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import WalkthroughError
from repro.serving.loadgen import MIN_STEP_GAP_MS, run_traffic

ARGS = dict(sessions=30, seed=5, frames=6, arrival_rate=80.0,
            max_active=6, scale="small")


def deterministic_part(report):
    return {key: report[key] for key in ("traffic", "deterministic")}


@pytest.fixture(scope="module")
def report():
    return run_traffic(**ARGS)


def test_same_seed_byte_identical(report):
    again = run_traffic(**ARGS)
    first = json.dumps(deterministic_part(report), sort_keys=True)
    second = json.dumps(deterministic_part(again), sort_keys=True)
    assert first == second


def test_different_seed_differs(report):
    other = run_traffic(**{**ARGS, "seed": 6})
    assert (other["deterministic"]["sim_duration_ms"]
            != report["deterministic"]["sim_duration_ms"])


def test_accounting_balances(report):
    det = report["deterministic"]
    sessions = det["sessions"]
    assert sessions["offered"] == ARGS["sessions"]
    assert sessions["admitted"] + sessions["shed"] == sessions["offered"]
    assert sessions["completed"] == sessions["admitted"]
    assert sessions["shed_rate"] + sessions["serve_rate"] == 1.0
    assert det["frames"]["served"] \
        == sessions["admitted"] * ARGS["frames"]
    assert det["requests"]["unexpected"] == {}
    by_status = det["requests"]["by_status"]
    assert by_status["201"] == sessions["admitted"]
    assert by_status.get("503", 0) == sessions["shed"]
    # Every request the driver issued is accounted by the middleware.
    assert det["requests"]["total"] == sum(by_status.values())
    # Every session was closed, and their I/O sums to the ledgers.
    reconciliation = det["reconciliation"]
    assert reconciliation["light_ios_balanced"] is True
    assert reconciliation["heavy_ios_balanced"] is True
    assert reconciliation["simulated_ms_balanced"] is True


def test_latency_percentiles_ordered(report):
    latency = report["deterministic"]["sim_frame_ms"]
    assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"]
    assert latency["p99"] <= latency["max"]


def test_wall_clock_separated_from_deterministic(report):
    # Wall-clock values live only in their own section, so the CI diff
    # of the other sections can never absorb machine noise.
    assert "elapsed_s" in report["wall_clock"]
    assert "http_latency_ms" in report["wall_clock"]
    flat = json.dumps(deterministic_part(report))
    assert "elapsed_s" not in flat
    assert "wall" not in flat


def test_shed_rate_monotone_in_offered_load():
    rates = [run_traffic(**{**ARGS, "arrival_rate": rate})
             ["deterministic"]["sessions"]["shed_rate"]
             for rate in (10.0, 400.0)]
    assert rates[0] < rates[1]


def test_self_pacing_gap_floor():
    # A zero-cost frame still advances the virtual clock.
    assert MIN_STEP_GAP_MS > 0.0


def test_bad_arguments_rejected():
    with pytest.raises(WalkthroughError):
        run_traffic(sessions=0)
    with pytest.raises(WalkthroughError):
        run_traffic(arrival_rate=0.0)
    with pytest.raises(WalkthroughError, match="seed must be >= 0"):
        run_traffic(seed=-1)


def test_cli_traffic_roundtrip(tmp_path, capsys):
    output = tmp_path / "traffic.json"
    code = cli_main(["traffic", "--sessions", "10", "--seed", "1",
                     "--frames", "4", "--deterministic-only",
                     "--output", str(output)])
    assert code == 0
    report = json.loads(output.read_text())
    assert set(report) == {"traffic", "deterministic"}
    assert report["traffic"]["sessions"] == 10
    assert capsys.readouterr().out.startswith(f"wrote {output}")


def test_cli_traffic_usage_error(capsys):
    assert cli_main(["traffic", "--sessions", "0"]) == 2
    assert "repro traffic:" in capsys.readouterr().err
