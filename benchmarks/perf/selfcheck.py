"""``run.py --selfcheck``: does the benchmark hold its own bounds?

For each workload the command is run ``--runs`` times, each time with
another seed, and then all over again with the same seeds — two sets of
runs of the same code.  Per end-to-end metric the check is the one the
benchmark will later be held to:

* the spread of each set (distance between first and third quartile, as
  a share of the median) stays within the metric's bound (``setup_s``
  exempt);
* the second set's median is not worse than the first's by more than
  the bound;

and, because the two sets share their seeds,

* every count metric repeats exactly, run for run — the end-to-end
  counts of every pair and, from one traced pair per workload, every
  per-layer count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Sequence

import report

HERE = os.path.dirname(os.path.abspath(__file__))

#: End-to-end metrics that are counts: exact at a fixed seed.
EXACT = ("sim_ms_per_op", "io_pages_per_op", "stored_mb", "ok_ops_share")
#: Per-layer units whose metrics are timings (everything else repeats).
_TIMING_UNITS = ("ms", "us", "s", "1/s")


def _run(workload: str, seed: int, trace: int) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(report.RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} exited "
            f"{completed.returncode}:\n{completed.stdout[-2000:]}\n"
            f"{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative: it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def check_workload(workload: str, runs: int) -> List[str]:
    """Runs both sets; prints the table; returns the failures."""
    seeds = list(range(1, runs + 1))
    sets: List[List[Dict[str, float]]] = []
    for label in ("A", "B"):
        rows = []
        for seed in seeds:
            rows.append(_run(workload, seed, trace=0))
            print(f"  {workload} set {label} seed {seed}: "
                  f"ops_per_s {rows[-1]['ops_per_s']:.1f}", flush=True)
        sets.append(rows)
    failures: List[str] = []
    print(f"\n| {workload} | median A | spread A | median B | spread B "
          f"| B worse by | bound | |")
    print("|---|---|---|---|---|---|---|---|")
    for name, _unit, better, bound in report.END_TO_END:
        a = [row[name] for row in sets[0]]
        b = [row[name] for row in sets[1]]
        _q1, median_a, _q3 = report.quartiles(a)
        _q1, median_b, _q3 = report.quartiles(b)
        spread_a, spread_b = report.spread(a), report.spread(b)
        worse = _worse_by(median_a, median_b, better)
        problems = []
        if name != "setup_s" and max(spread_a, spread_b) > bound:
            problems.append("spread")
        if worse > bound:
            problems.append("drift")
        if name in EXACT and a != b:
            problems.append("not exact at fixed seed")
        verdict = "ok" if not problems else "FAIL: " + ", ".join(problems)
        print(f"| {name} | {median_a:.6g} | {spread_a:.4f} | "
              f"{median_b:.6g} | {spread_b:.4f} | {worse:+.4f} | "
              f"{bound:g} | {verdict} |")
        failures.extend(f"{workload}.{name}: {p}" for p in problems)

    first, second = (_run(workload, seeds[0], trace=1) for _ in range(2))
    moved = [name for name, unit, _better in report.per_layer()
             if unit not in _TIMING_UNITS
             and not name.startswith("bench.trace.")
             and first[name] != second[name]]
    print(f"\nper-layer counts of two traced runs at seed {seeds[0]}: "
          + ("identical" if not moved else "DIFFER: " + ", ".join(moved)))
    failures.extend(f"{workload}.{name}: count moved" for name in moved)
    return failures


def main(workloads: Sequence[str], *, runs: int) -> int:
    failures: List[str] = []
    for workload in workloads:
        failures.extend(check_workload(workload, runs))
    print("\nselfcheck: " + ("ok" if not failures
                             else "FAILED\n  " + "\n  ".join(failures)))
    return 1 if failures else 0
