"""Bench: serving scaling curve — sessions vs throughput and hit rate.

Serves the SMALL scene at 1/2/4/8 concurrent sessions through one
shared buffer pool and emits ``BENCH_serving.json``.  The tracked
numbers are *simulated*, not wall-clock: aggregate frames per simulated
second and the shared-pool hit rate are pure functions of the
configuration, so the regression gate compares them exactly across
machines (a noisy CI runner cannot fake a regression or hide one).
No wall-clock figure (nor the CPU count that would qualify one) is
written: it would include the scene build and no gate reads it
(``benchmarks/perf`` is the repo's real clock).

Scaling expectation (the PR 5 acceptance bar): the more sessions share
the tree, the hotter its upper levels stay in the pool, so the hit rate
at 8 sessions must exceed the 1-session rate.
"""

from __future__ import annotations

import json

from repro.serving import run_serve

SESSION_COUNTS = (1, 2, 4, 8)
FRAMES = 30
SEED = 7
OUTPUT = "BENCH_serving.json"

#: The replacement A/B grid (PR 10).  The pool is deliberately
#: undersized — 28 pages against dozens of sessions re-walking the same
#: three seeded paths — so each session's cell scan floods a plain LRU
#: while 2Q's probationary queue keeps the shared hot set resident.
AB_SESSION_COUNTS = (32, 64)
AB_POLICIES = ("lru", "2q")
AB_FRAMES = 24
AB_POOL_PAGES = 28
AB_OUTPUT = "BENCH_replacement.json"


def test_serving_scaling(capsys):
    curve = {}
    for sessions in SESSION_COUNTS:
        report = run_serve(sessions=sessions, seed=SEED,
                           frames=FRAMES, include_frame_times=False)
        assert report["outcome"]["completed"] is True
        reconciliation = report["reconciliation"]
        assert reconciliation["light_ios_balanced"] is True
        assert reconciliation["heavy_ios_balanced"] is True

        total_frames = report["outcome"]["frames_served"]
        simulated_ms = sum(entry["frame_ms"]["mean"] * entry["frames"]
                           for entry in report["sessions"])
        pool = report["pool"]
        curve[str(sessions)] = {
            "frames": total_frames,
            "sim_frames_per_s": round(total_frames / simulated_ms * 1000.0,
                                      2),
            "pool_hit_rate": round(pool["hit_rate"], 4),
            "pool_hits": pool["hits"],
            "pool_misses": pool["misses"],
        }

    report = {
        "scale": "small",
        "seed": SEED,
        "frames_per_session": FRAMES,
        "sessions": curve,
    }
    with open(OUTPUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2, sort_keys=True))

    # Sharing must pay: the pool serves 8 sessions better than 1.
    assert curve["8"]["pool_hit_rate"] > curve["1"]["pool_hit_rate"]


def _ab_cell(sessions, policy):
    """One grid cell: serve under pressure, distill tracked numbers."""
    report = run_serve(sessions=sessions, seed=SEED,
                       frames=AB_FRAMES, pool_pages=AB_POOL_PAGES,
                       policy=policy, include_frame_times=False)
    assert report["outcome"]["completed"] is True
    reconciliation = report["reconciliation"]
    assert reconciliation["light_ios_balanced"] is True
    assert reconciliation["heavy_ios_balanced"] is True
    assert reconciliation["pool_balanced"] is True

    total_frames = report["outcome"]["frames_served"]
    simulated_ms = sum(entry["frame_ms"]["mean"] * entry["frames"]
                       for entry in report["sessions"])
    pool = report["pool"]
    return {
        "frames": total_frames,
        "sim_frames_per_s": round(total_frames / simulated_ms * 1000.0,
                                  2),
        "pool_hit_rate": round(pool["hit_rate"], 4),
        "pool_hits": pool["hits"],
        "pool_misses": pool["misses"],
        "heavy_bytes_read":
            reconciliation["heavy_environment"]["bytes_read"],
    }


def test_replacement_ab(capsys):
    """Policy x sessions grid under pool pressure (PR 10 acceptance).

    At >= 32 sessions on an undersized pool, 2Q's hit rate must be
    strictly above LRU's.  Everything written to
    ``BENCH_replacement.json`` is simulated and deterministic.
    """
    grid = {}
    for sessions in AB_SESSION_COUNTS:
        cells = {policy: _ab_cell(sessions, policy)
                 for policy in AB_POLICIES}
        # Scan resistance pays: 2Q strictly beats LRU on hit rate.
        assert cells["2q"]["pool_hit_rate"] > cells["lru"]["pool_hit_rate"]
        grid[str(sessions)] = {
            "cells": cells,
            # Ratio gate for the regression table (higher is better):
            # the 2Q hit-rate multiple over LRU.
            "hit_rate_gain_2q": round(
                cells["2q"]["pool_hit_rate"]
                / cells["lru"]["pool_hit_rate"], 4),
        }

    report = {
        "scale": "small",
        "seed": SEED,
        "frames_per_session": AB_FRAMES,
        "pool_pages": AB_POOL_PAGES,
        "grid": grid,
    }
    with open(AB_OUTPUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2, sort_keys=True))
