"""Benchmark regression gate: fail CI when a tracked metric slips.

Compares the freshly produced ``BENCH_*.json`` files against the
committed snapshots in ``baselines/`` and exits non-zero when any
tracked higher-is-better metric regresses by more than
``--max-regression`` (default 15%).

Only machine-independent metrics are tracked: the precompute speedup
*ratios* (both sides of each ratio run on the same box, so the box
cancels out) and the serving curve's *simulated* throughput and hit
rates (pure functions of the configuration).  Raw wall-clock seconds
are deliberately untracked — a noisy runner must not be able to fail
the gate or mask a real regression.

A delta table is written to ``$GITHUB_STEP_SUMMARY`` when set (the CI
job summary), and always to stdout.

Usage::

    python benchmarks/bench_regression.py \
        --baseline-dir baselines --current-dir . [--max-regression 0.15]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, List, Tuple

#: (file, dotted path into the JSON, human label).  All tracked metrics
#: are higher-is-better; add lower-is-better metrics by tracking their
#: reciprocal ratio instead.
TRACKED: Tuple[Tuple[str, str, str], ...] = (
    # Precompute ratios are against the unculled per-viewpoint
    # full-matrix reference, which shares no nearest-hit kernel with
    # the pipeline it is compared with.
    ("BENCH_precompute.json", "speedup_batched",
     "precompute: batched speedup over unculled reference, small"),
    ("BENCH_precompute.json", "speedup_batched_workers2",
     "precompute: batched+2 workers speedup over unculled reference"),
    ("BENCH_precompute.json", "benchmark_scene.speedup_culled",
     "precompute: octant + distance-band cull speedup, 12x12 benchmark scene"),
    ("BENCH_serving.json", "sessions.1.sim_frames_per_s",
     "serving: sim frames/s, 1 session"),
    ("BENCH_serving.json", "sessions.8.sim_frames_per_s",
     "serving: sim frames/s, 8 sessions"),
    ("BENCH_serving.json", "sessions.1.pool_hit_rate",
     "serving: pool hit rate, 1 session"),
    ("BENCH_serving.json", "sessions.8.pool_hit_rate",
     "serving: pool hit rate, 8 sessions"),
    # Compression metrics are pure functions of (scale, session, eta):
    # the V-page byte ratio of the packed delta codec over the raw
    # one, and the stream's own ratio, both higher-is-better.
    ("BENCH_compression.json", "schemes.vertical.light_bytes_improvement",
     "compression: V-page byte improvement, vertical"),
    ("BENCH_compression.json",
     "schemes.indexed-vertical.light_bytes_improvement",
     "compression: V-page byte improvement, indexed-vertical"),
    ("BENCH_compression.json",
     "schemes.vertical.compression_inverse_ratio",
     "compression: packed stream compression, vertical"),
    # Replacement grid (pool pressure, simulated and deterministic):
    # 2Q hit rates and throughput.
    ("BENCH_replacement.json", "grid.32.cells.2q.pool_hit_rate",
     "replacement: 2Q hit rate, 32 sessions"),
    ("BENCH_replacement.json", "grid.64.cells.2q.pool_hit_rate",
     "replacement: 2Q hit rate, 64 sessions"),
    ("BENCH_replacement.json", "grid.64.cells.2q.sim_frames_per_s",
     "replacement: sim frames/s, 2Q, 64 sessions"),
)


def lookup(document: object, dotted: str) -> float:
    node = document
    for part in dotted.split("."):
        node = node[part]  # type: ignore[index]
    return float(node)  # type: ignore[arg-type]


def iter_rows(baseline_dir: str,
              current_dir: str) -> Iterator[Tuple[str, float, float]]:
    cache = {}

    def load(root: str, name: str) -> object:
        path = os.path.join(root, name)
        if path not in cache:
            with open(path) as fh:
                cache[path] = json.load(fh)
        return cache[path]

    for name, dotted, label in TRACKED:
        baseline = lookup(load(baseline_dir, name), dotted)
        current = lookup(load(current_dir, name), dotted)
        yield label, baseline, current


def format_table(rows: List[Tuple[str, float, float, float, bool]],
                 max_regression: float) -> str:
    lines = [
        "| metric | baseline | current | delta | status |",
        "|---|---:|---:|---:|---|",
    ]
    for label, baseline, current, delta, failed in rows:
        status = "regressed" if failed else "ok"
        lines.append(f"| {label} | {baseline:g} | {current:g} "
                     f"| {delta:+.1%} | {status} |")
    lines.append("")
    lines.append(f"Gate: fail when any metric drops more than "
                 f"{max_regression:.0%} below its baseline.")
    return "\n".join(lines)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", default="baselines",
                        help="directory with committed BENCH_*.json "
                             "snapshots (default: baselines)")
    parser.add_argument("--current-dir", default=".",
                        help="directory with freshly produced "
                             "BENCH_*.json files (default: .)")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        help="allowed fractional drop per metric "
                             "(default: 0.15)")
    parser.add_argument("--table-output", default=None, metavar="FILE",
                        help="also write the delta table to FILE "
                             "(uploaded as a CI build artifact)")
    args = parser.parse_args(argv)

    try:
        compared = list(iter_rows(args.baseline_dir, args.current_dir))
    except FileNotFoundError as exc:
        print(f"bench_regression: missing benchmark file: {exc}",
              file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"bench_regression: missing tracked metric: {exc}",
              file=sys.stderr)
        return 2

    rows = []
    failures = 0
    for label, baseline, current in compared:
        delta = (current - baseline) / baseline if baseline else 0.0
        failed = current < baseline * (1.0 - args.max_regression)
        failures += failed
        rows.append((label, baseline, current, delta, failed))

    table = format_table(rows, args.max_regression)
    print(table)
    if args.table_output:
        with open(args.table_output, "w") as fh:
            fh.write(table + "\n")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write("## Benchmark regression gate\n\n")
            fh.write(table + "\n")

    if failures:
        print(f"bench_regression: {failures} tracked metric(s) "
              f"regressed more than {args.max_regression:.0%}",
              file=sys.stderr)
        return 1
    print("bench_regression: all tracked metrics within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
