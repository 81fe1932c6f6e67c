"""Bench: traffic latency/shed curve — offered load vs service quality.

Offers the same seeded session stream to the HTTP front-end at two
offered loads (a comfortable one and an overloaded one, same admission
slots) and emits ``BENCH_traffic.json``: p50/p95/p99 *simulated* frame
latency, shed rate, frames served and request counts per load point.

Everything tracked by the regression gate is machine-independent — the
virtual-clock latency percentiles, serve rate (1 - shed rate: the gate
wants higher-is-better) and the served-frame/request counts are pure
functions of (seed, load, config), so a noisy runner can neither fake
a regression nor hide one.  No wall-clock figure (nor the CPU count
that would qualify one) is written: no gate reads it
(``benchmarks/perf`` is the repo's real clock).

Shape expectation (the PR 6 acceptance bar): pushing the offered load
past the admission capacity must shed sessions — the overloaded point
sheds strictly more than the comfortable one.
"""

from __future__ import annotations

import json

from repro.serving.loadgen import run_traffic

#: Offered loads in sessions per virtual second.  Capacity with 8 slots
#: and ~20 frames of ~5-90 simulated ms each is well under 200/s, so
#: the second point overloads while the first stays comfortable.
ARRIVAL_RATES = (25.0, 200.0)
SESSIONS = 100
FRAMES = 20
MAX_ACTIVE = 8
SEED = 0
OUTPUT = "BENCH_traffic.json"


def test_traffic_curve(capsys):
    curve = {}
    for rate in ARRIVAL_RATES:
        report = run_traffic(sessions=SESSIONS, seed=SEED, frames=FRAMES,
                             arrival_rate=rate, max_active=MAX_ACTIVE)
        det = report["deterministic"]
        assert det["requests"]["unexpected"] == {}
        assert det["sessions"]["completed"] == det["sessions"]["admitted"]

        latency = det["sim_frame_ms"]
        curve[f"{rate:g}"] = {
            "offered": det["sessions"]["offered"],
            "admitted": det["sessions"]["admitted"],
            "shed": det["sessions"]["shed"],
            "shed_rate": round(det["sessions"]["shed_rate"], 4),
            "serve_rate": round(det["sessions"]["serve_rate"], 4),
            "frames": det["frames"]["served"],
            "requests": det["requests"]["total"],
            "sim_frame_ms_p50": round(latency["p50"], 4),
            "sim_frame_ms_p95": round(latency["p95"], 4),
            "sim_frame_ms_p99": round(latency["p99"], 4),
        }

    report = {
        "scale": "small",
        "seed": SEED,
        "sessions_offered": SESSIONS,
        "frames_per_session": FRAMES,
        "max_active": MAX_ACTIVE,
        "loads": curve,
    }
    with open(OUTPUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2, sort_keys=True))

    # Overload must shed: admission control, not silent queueing.
    low, high = (curve[f"{rate:g}"] for rate in ARRIVAL_RATES)
    assert high["shed"] > low["shed"]
    assert high["serve_rate"] < low["serve_rate"]
