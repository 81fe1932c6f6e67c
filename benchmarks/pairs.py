"""Alternating parent/change pairs of the repository's benchmark.

    python benchmarks/pairs.py --parent <rev> --workload <name> \\
        --pairs <n> [--seconds <s>] [--metric <name> [--claim]] \\
        [--trace] [--json <path>]

extracts revision ``<rev>`` into a temporary directory (``git archive``
of the local repository: no network, and unlike a ``git worktree`` it
registers nothing in ``.git``, so a killed run leaves no entry behind)
and measures it against this working tree with
``benchmarks/perf/run.py --trace 0``, one process at a time.  Pair
``i`` runs the parent first when ``i`` is even; seeds cycle 1, 2, 3.

It prints, as Markdown, a summary row per end-to-end metric of
``BENCHMARK.json`` — medians and quartiles of both sides, the ratio,
the pairs the change won and the median gap against the parent's
quartile distance, with ``--metric`` first (and labelled as the
change's claim only under ``--claim``: a regression check of a metric
is not a claim) — the verdict on the metrics that must be identical in
every pair, and every run.
``--trace`` then runs ``run.py --trace 1`` once per side at seed 1 and
adds each layer's ``.calls`` and ``.self_ms`` side by side, and every
other per-layer metric that differs between the sides.
``--json`` also writes the pairs and summaries as one JSON record.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, NamedTuple, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join("benchmarks", "perf", "run.py")
SIDES = ("parent", "change")

#: End-to-end metrics a speed change must leave exactly as they were.
IDENTICAL = ("sim_ms_per_op", "io_pages_per_op", "stored_mb",
             "ok_ops_share")


class Summary(NamedTuple):
    """One metric over a set of pairs."""

    pairs: int
    parent_median: float
    parent_q1: float
    parent_q3: float
    change_median: float
    change_q1: float
    change_q3: float
    #: change median over parent median.
    ratio: float
    #: Pairs in which the change is strictly better.
    wins: int
    #: Median improvement in the metric's better direction (negative:
    #: the change is worse).
    gap: float
    parent_iqr: float

    @property
    def gap_exceeds_iqr(self) -> bool:
        return self.gap > self.parent_iqr


def quartiles(values: Sequence[float]) -> List[float]:
    """q1, median, q3 (``statistics.quantiles``' exclusive method; a
    single value is all three)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(parent: Sequence[float], change: Sequence[float],
              better: str) -> Summary:
    """The summary of one metric's per-pair values; ``better`` is
    ``"lower"`` or ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    return Summary(
        pairs=len(parent),
        parent_median=p_median, parent_q1=p_q1, parent_q3=p_q3,
        change_median=c_median, change_q1=c_q1, change_q3=c_q3,
        ratio=c_median / p_median if p_median else float("nan"),
        wins=sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        gap=sign * (c_median - p_median) + 0.0,     # no -0.0
        parent_iqr=p_q3 - p_q1)


def differing(pairs: Sequence[Dict[str, Dict[str, float]]],
              names: Sequence[str] = IDENTICAL) -> List[str]:
    """The metrics of ``names`` whose two values differ in some pair."""
    return [name for name in names
            if any(pair["parent"][name] != pair["change"][name]
                   for pair in pairs)]


def end_to_end() -> Dict[str, str]:
    """Metric name -> better direction, from ``BENCHMARK.json``."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    return {entry["name"]: entry["better"] for entry in declared}


def extract(rev: str, into: str) -> str:
    """Revision ``rev`` of this repository, extracted under ``into``."""
    archive = subprocess.run(["git", "-C", REPO, "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into


def run_side(root: str, workload: str, seed: int,
             seconds: float, trace: bool = False) -> Dict[str, object]:
    """One ``run.py`` run in ``root``: its exit code, verdict and
    metric values (end-to-end, or per-layer under ``trace``)."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: run.py printed nothing (exit "
                           f"{done.returncode}): {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"exit": done.returncode, "correct": result["correct"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def run_pairs(parent_root: str, workload: str, pairs: int,
              seconds: float) -> List[Dict[str, object]]:
    """``pairs`` alternating pairs, each printed to stderr as it ends."""
    roots = {"parent": parent_root, "change": REPO}
    records = []
    for index in range(pairs):
        seed = 1 + index % 3
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        record: Dict[str, object] = {"pair": index, "seed": seed,
                                     "first": order[0]}
        for side in order:
            record[side] = run_side(roots[side], workload, seed, seconds)
        records.append(record)
        print(f"pair {index} seed {seed}: done", file=sys.stderr)
    return records


def _fmt(value: float) -> str:
    return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"


def report(rev: str, workload: str, seconds: float, metric: Optional[str],
           records: Sequence[Dict[str, object]],
           claim: bool = False) -> Dict[str, object]:
    """The Markdown report (``"markdown"``) and the JSON record;
    ``metric`` is listed first, and labelled claimed if ``claim``."""
    betters = end_to_end()
    names = sorted(betters, key=lambda name: name != metric)
    values = [{side: record[side]["metrics"] for side in SIDES}
              for record in records]
    summaries = {name: summarize([v["parent"][name] for v in values],
                                 [v["change"][name] for v in values],
                                 betters[name])
                 for name in names}
    moved = differing(values)
    failed = [f"pair {r['pair']} {side}" for r in records for side in SIDES
              if r[side]["exit"] != 0 or not r[side]["correct"]]
    lines = [
        f"# `{workload}`: parent `{rev}` against the working tree", "",
        f"{len(records)} pairs of `python3 {RUN} --workload {workload} "
        f"--seed S --seconds {seconds:g} --trace 0`; pair i runs the "
        f"parent first when i is even, seeds cycle 1, 2, 3.", "",
        "| metric | parent median (q1–q3) | change median (q1–q3) | "
        "ratio | change better in | gap / parent IQR |",
        "|---|---|---|---|---|---|"]
    for name, s in summaries.items():
        label = (f"**`{name}`** (claimed)" if claim and name == metric
                 else f"`{name}`")
        lines.append(
            f"| {label} | {_fmt(s.parent_median)} ({_fmt(s.parent_q1)}–"
            f"{_fmt(s.parent_q3)}) | {_fmt(s.change_median)} "
            f"({_fmt(s.change_q1)}–{_fmt(s.change_q3)}) | {s.ratio:.3f}× | "
            f"{s.wins}/{s.pairs} | {_fmt(s.gap)} / {_fmt(s.parent_iqr)}"
            f"{' (exceeds)' if s.gap_exceeds_iqr else ''} |")
    lines += ["", "Identical in every pair: " + ", ".join(
        f"`{name}`" for name in IDENTICAL) + (
        " — yes." if not moved else
        " — **no**: " + ", ".join(f"`{name}` differs" for name in moved)
        + "."),
        "Runs that failed or answered wrongly: "
        + (", ".join(failed) if failed else "none") + ".", "",
        "| pair | seed | first | " + " | ".join(
            f"{name} {side}" for name in names for side in SIDES) + " |",
        "|---|---|---|" + "---|" * (2 * len(names))]
    for record, value in zip(records, values):
        lines.append(
            f"| {record['pair']} | {record['seed']} | {record['first']} | "
            + " | ".join(_fmt(value[side][name])
                         for name in names for side in SIDES) + " |")
    return {"markdown": "\n".join(lines) + "\n",
            "record": {"parent": rev, "workload": workload,
                       "seconds": seconds, "metric": metric,
                       "claim": claim,
                       "identical": not moved, "differing": moved,
                       "failed": failed, "pairs": list(records),
                       "summaries": {name: s._asdict()
                                     for name, s in summaries.items()}}}


def traced(rev: str, workload: str, seconds: float,
           runs: Dict[str, Dict[str, object]]) -> str:
    """Markdown of one traced seed-1 run per side (``runs[side]``): each
    layer's calls and self ms side by side, then every other per-layer
    metric whose two values differ."""
    metrics = {side: runs[side]["metrics"] for side in SIDES}
    names = list(metrics["parent"])
    layers = [name[:-len(".calls")] for name in names
              if name.endswith(".calls")]
    lines = [f"## Traced: `python3 {RUN} --workload {workload} --seed 1 "
             f"--seconds {seconds:g} --trace 1`, parent `{rev}` and the "
             f"working tree", "",
             "| layer | calls parent | calls change | self_ms parent | "
             "self_ms change |", "|---|---|---|---|---|"]
    for layer in layers:
        calls, self_ms = (
            [metrics[side][f"{layer}.{part}"] for side in SIDES]
            for part in ("calls", "self_ms"))
        moved = " (moved)" if calls[0] != calls[1] else ""
        lines.append(f"| `{layer}` | {calls[0]:.0f} | {calls[1]:.0f}{moved} "
                     f"| {self_ms[0]:.1f} | {self_ms[1]:.1f} |")
    shown = {f"{layer}.{part}" for layer in layers
             for part in ("calls", "self_ms", "us_per_call")}
    differ = [name for name in names if name not in shown
              and metrics["parent"][name] != metrics["change"].get(name)]
    lines += ["", "Every other per-layer metric that differs "
              "(timings move from run to run; a count that moves is a "
              "change):", "", "| metric | parent | change |", "|---|---|---|"]
    lines += [f"| `{name}` | {_fmt(metrics['parent'][name])} | "
              f"{_fmt(metrics['change'][name])} |" for name in differ]
    failed = [side for side in SIDES
              if runs[side]["exit"] != 0 or not runs[side]["correct"]]
    lines += ["", "Traced runs that failed or answered wrongly: "
              + (", ".join(failed) if failed else "none") + "."]
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the revision to measure against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--metric", default=None,
                        help="the metric listed first")
    parser.add_argument("--claim", action="store_true",
                        help="label --metric as the change's claim")
    parser.add_argument("--trace", action="store_true",
                        help="then one --trace 1 run per side at seed 1")
    parser.add_argument("--json", default=None,
                        help="also write the JSON record here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.claim and args.metric is None:
        parser.error("--claim needs --metric")
    if args.metric is not None and args.metric not in end_to_end():
        parser.error(f"--metric must be an end-to-end metric of "
                     f"BENCHMARK.json, got {args.metric!r}")
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as workdir:
        parent_root = extract(args.parent, workdir)
        records = run_pairs(parent_root, args.workload, args.pairs,
                            args.seconds)
        runs = ({side: run_side(root, args.workload, 1, args.seconds,
                                trace=True)
                 for side, root in (("parent", parent_root),
                                    ("change", REPO))}
                if args.trace else None)
    out = report(args.parent, args.workload, args.seconds, args.metric,
                 records, args.claim)
    print(out["markdown"], end="")
    if runs is not None:
        print("\n" + traced(args.parent, args.workload, args.seconds, runs),
              end="")
        out["record"]["traced"] = runs
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(out["record"], fh, indent=1)
            fh.write("\n")
    record = out["record"]
    return 0 if record["identical"] and not record["failed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
