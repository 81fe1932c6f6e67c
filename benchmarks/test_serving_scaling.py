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

#: The replacement grid under pool pressure.  The pool is deliberately
#: undersized — 28 pages against dozens of sessions re-walking the same
#: three seeded paths — so 2Q's probationary queue has to keep the
#: shared hot set resident through each session's cell scan.  Plain LRU
#: halved the hit rate here (DESIGN.md, "2Q replacement").
AB_SESSION_COUNTS = (32, 64)
AB_FRAMES = 24
AB_POOL_PAGES = 28
AB_OUTPUT = "BENCH_replacement.json"


def test_serving_scaling(capsys):
    curve = {}
    for sessions in SESSION_COUNTS:
        report = run_serve(sessions=sessions, seed=SEED, frames=FRAMES)
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


def _ab_cell(sessions):
    """One grid cell: serve under pressure, distill tracked numbers."""
    report = run_serve(sessions=sessions, seed=SEED,
                       frames=AB_FRAMES, pool_pages=AB_POOL_PAGES)
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
    """The 2Q pool at 32 and 64 sessions under pool pressure.

    Everything written to ``BENCH_replacement.json`` is simulated and
    deterministic.
    """
    grid = {str(sessions): {"cells": {"2q": _ab_cell(sessions)}}
            for sessions in AB_SESSION_COUNTS}

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
