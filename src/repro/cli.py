"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro list
    python -m repro run table2 [--scale small|medium|large]
    python -m repro run fig7 fig8 table3
    python -m repro run all --scale small
    python -m repro profile [--scale small] [--session 1] [--eta 0.001]
    python -m repro chaos [--plan aggressive] [--seed 0] [--list-plans]
    python -m repro crash [--seed 0] [--output FILE]
    python -m repro precompute [--workers N] [--samples 2]
    python -m repro serve [--sessions 8] [--seed 7] [--pool-pages 256]

``run`` prints the same rows/series the paper reports (see
EXPERIMENTS.md for the paper-vs-measured comparison); ``profile`` runs
one instrumented walkthrough and emits a JSON report of where the
simulated milliseconds and page I/Os go (see README, "Profiling");
``chaos`` replays a session under a named fault plan and reports frames
survived, degradations, retries, and the fidelity delta (see README,
"Chaos testing"); ``crash`` sweeps a deterministic crash-point matrix
over every I/O boundary of a journaled write workload — including the
boundaries inside recovery itself — and fails if any recovered state
breaks atomicity or recovery is not idempotent (see README, "Crash
recovery"); ``precompute`` runs the batched/parallel per-cell DoV
pipeline and emits a JSON summary whose ``digest`` field fingerprints
the resulting table bit-for-bit (see README, "Precompute"); ``serve``
runs N concurrent walkthrough sessions against one tree through a
shared buffer pool and emits a deterministic aggregate JSON report (see
README, "Serving").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from repro.experiments import (run_figure7, run_figure8, run_figure9,
                               run_figure10a, run_figure10b, run_figure11,
                               run_figure12, run_memory_comparison,
                               run_table2, run_table3)
from repro.experiments.ablations import run_flip_scaling, run_nvo_ablation
from repro.experiments.baseline_comparison import run_baseline_comparison
from repro.errors import (HDoVError, ReproError, StorageError,
                          VisibilityError)
from repro.experiments.config import get_scale

#: Experiment id -> (description, runner taking a scale).  The two
#: lambdas adapt drivers that size their own dataset series.
EXPERIMENTS: Dict[str, tuple] = {
    "table2": ("storage space of the three schemes", run_table2),
    "fig7": ("search time vs eta (all schemes + naive)", run_figure7),
    "fig8": ("disk I/Os vs eta (total and light-weight)", run_figure8),
    "fig9": ("scalability over the 400MB-1.6GB dataset series",
             lambda scale: run_figure9(num_queries=30, dov_resolution=16,
                                       cell_size=120.0)),
    "fig10a": ("frame time: VISUAL vs REVIEW", run_figure10a),
    "fig10b": ("frame time: VISUAL at two thresholds", run_figure10b),
    "fig11": ("visual fidelity (missed objects)", run_figure11),
    "fig12": ("search performance across motion patterns", run_figure12),
    "table3": ("frame time and variance vs eta", run_table3),
    "memory": ("peak memory: VISUAL vs REVIEW", run_memory_comparison),
    "ablation-nvo": ("eq.4 NVO termination heuristic on/off",
                     run_nvo_ablation),
    "ablation-flip": ("cell-flip I/O vs tree size",
                      lambda scale: run_flip_scaling()),
    "baselines": ("VISUAL vs REVIEW vs LoD-R-tree across sessions",
                  run_baseline_comparison),
}


def _add_scale(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--scale", default=default,
                        choices=["small", "medium", "large"],
                        help=f"environment scale (default: {default})")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the JSON report to FILE, not stdout")


def _eta(text: str) -> float:
    """``--eta``: a threshold >= 0 (``inf`` included; NaN is not)."""
    eta = float(text)
    if not eta >= 0.0:
        raise argparse.ArgumentTypeError(f"eta must be >= 0, got {text}")
    return eta


def _positive(text: str) -> float:
    """``--frame-budget-ms``: a value > 0 (``inf`` included: a budget
    nothing exceeds; NaN is not)."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _frames(text: str) -> int:
    """``--frames``: a session length >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"frames must be >= 1, got {text}")
    return value


def _seed(text: str) -> int:
    """``serve --seed``: an RNG seed >= 0 (numpy refuses a negative one,
    and only after the world is built)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return value


def _add_walk_options(parser: argparse.ArgumentParser, *,
                      session: Optional[int] = None) -> None:
    """Options shared by the verbs that walk sessions through a world.

    ``session`` is the default motion pattern of the single-session
    verbs (``None``: the verb draws its own patterns and has no such
    flag).
    """
    _add_scale(parser, "small")
    if session is not None:
        parser.add_argument("--session", type=int, default=session,
                            choices=[1, 2, 3, 4],
                            help="motion pattern: 1 normal walk, 2 turns, "
                                 "3 back-and-forth, 4 the loop circuit "
                                 f"(default: {session})")
    parser.add_argument("--eta", type=_eta, default=0.001,
                        help="DoV threshold (default: 0.001)")
    parser.add_argument("--frames", type=_frames, default=None,
                        help="frames per session (default: set by the "
                             "scale)")
    parser.add_argument("--scheme", default=None,
                        help="storage scheme (default: the scale's)")
    _add_output(parser)


def _run_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """The ``run_*`` keywords of ``_add_walk_options``' flags."""
    keys = ["scale", "session", "eta", "frames", "scheme"]
    return {key: getattr(args, key) for key in keys if hasattr(args, key)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HDoV-tree (ICDE 2003) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+",
                     help="experiment ids (or 'all')")
    _add_scale(run, "medium")

    profile = sub.add_parser(
        "profile",
        help="run an instrumented walkthrough; emit a JSON I/O report")
    _add_walk_options(profile, session=1)
    profile.add_argument("--compress", action="store_true",
                         help="build with the packed delta V-page codec")

    chaos = sub.add_parser(
        "chaos",
        help="replay a walkthrough under a fault plan; emit a JSON report")
    _add_walk_options(chaos, session=1)
    chaos.add_argument("--compress", action="store_true",
                       help="build with the packed delta V-page codec "
                            "(faults then hit compressed records too)")
    chaos.add_argument("--plan", default="aggressive",
                       help="fault plan name (default: aggressive; "
                            "see --list-plans)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-injector seed (default: 0); the "
                            "same seed reproduces the same report")
    chaos.add_argument("--list-plans", action="store_true",
                       help="list the built-in fault plans and exit")

    crash = sub.add_parser(
        "crash",
        help="sweep a crash-point matrix over the journaled write path; "
             "emit a byte-deterministic JSON report")
    crash.add_argument("--seed", type=int, default=0,
                       help="workload/injector seed (default: 0); the "
                            "same seed reproduces the report bytes")
    _add_output(crash)

    precompute = sub.add_parser(
        "precompute",
        help="run the per-cell DoV precompute pipeline; emit a JSON "
             "summary with the table's content digest")
    _add_scale(precompute, "small")
    precompute.add_argument("--resolution", type=int, default=None,
                            help="cube-map resolution (default: the "
                                 "scale's)")
    precompute.add_argument("--samples", type=int, default=1,
                            help="viewpoint samples per cell (default: 1)")
    precompute.add_argument("--workers", type=int, default=None,
                            help="processes (default: one per usable CPU; "
                                 "any count yields a bit-identical table)")
    _add_output(precompute)
    precompute.add_argument("--quiet", action="store_true",
                            help="suppress the progress line on stderr")

    serve = sub.add_parser(
        "serve",
        help="serve N concurrent walkthrough sessions through a shared "
             "buffer pool; emit a deterministic JSON report")
    _add_walk_options(serve)
    serve.add_argument("--sessions", type=int, default=8,
                       help="walkthrough sessions served (default: 8)")
    serve.add_argument("--seed", type=_seed, default=7,
                       help="motion-pattern seed (default: 7); the same "
                            "seed reproduces the report")
    serve.add_argument("--frame-budget-ms", type=_positive, default=None,
                       help="simulated per-frame deadline; sessions over "
                            "budget shed their next query to the root LoD")
    serve.add_argument("--pool-pages", type=int, default=256,
                       help="shared buffer-pool capacity in pages "
                            "(default: 256; 0 serves unpooled)")
    serve.add_argument("--plan", default=None,
                       help="optional fault plan to serve under "
                            "(see 'repro chaos --list-plans')")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="fault-injector seed (default: 0)")

    lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis rule suite (RPR codes)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: src)")
    lint.add_argument("--rules", action="store_true",
                      help="list the registered rules and exit")
    return parser


def _emit(report: Dict[str, object], output: Optional[str], summary: str,
          ok: bool = True) -> int:
    """Print ``report`` as JSON — or write it to ``output`` and print a
    one-line ``summary`` — and turn ``ok`` into the exit code."""
    text = json.dumps(report, indent=2, sort_keys=False)
    if output is not None:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {output} ({summary})")
    else:
        print(text)
    return 0 if ok else 1


def cmd_list(args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (description, _runner) in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    return 0


def cmd_run(args) -> int:
    names = args.experiments
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print("use 'python -m repro list'", file=sys.stderr)
        return 2
    scale = get_scale(args.scale)
    for name in names:
        _description, runner = EXPERIMENTS[name]
        # perf_counter, not time.time(): wall-clock can jump (NTP, DST)
        # and RPR004 forbids it for elapsed-time measurement.
        started = time.perf_counter()
        result = runner(scale)
        elapsed = time.perf_counter() - started
        print()
        print(result.format_table())
        print(f"[{name} completed in {elapsed:.1f}s wall-clock "
              f"at scale {args.scale!r}]")
    return 0


def cmd_profile(args) -> int:
    from repro.obs.profile import run_profile

    report = run_profile(**_run_kwargs(args), compress=args.compress)
    reconciled = report["io"]["reconciled"]
    return _emit(report, args.output, f"reconciled={reconciled}",
                 reconciled)


def cmd_chaos(args) -> int:
    from repro.obs.chaos import run_chaos
    from repro.storage.faults import named_plan, plan_names

    if args.list_plans:
        width = max(len(name) for name in plan_names())
        for name in plan_names():
            rules = named_plan(name).rules
            kinds = ", ".join(sorted({r.kind for r in rules}))
            print(f"  {name:<{width}}  {len(rules)} rule(s): {kinds}")
        return 0
    report = run_chaos(**_run_kwargs(args), plan=args.plan,
                       seed=args.seed, compress=args.compress)
    outcome = report["outcome"]
    # Nonzero on any violated invariant — not just an aborted replay; a
    # completed run whose accounting is inconsistent must fail CI too.
    return _emit(report, args.output,
                 f"completed={outcome['completed']}, survived "
                 f"{outcome['frames_survived']}/{outcome['frames_total']} "
                 f"frames", report["invariants"]["ok"])


def cmd_crash(args) -> int:
    from repro.obs.crash import run_crash_sweep

    report = run_crash_sweep(seed=args.seed)
    summary = report["summary"]
    return _emit(report, args.output,
                 f"points={summary['points']}, "
                 f"recovery_points={summary['recovery_points']}, "
                 f"violations={summary['violations']}", summary["ok"])


def cmd_precompute(args) -> int:
    from repro.obs.metrics import use_registry
    from repro.obs.replay import build_scene
    from repro.visibility.dov import visibility_digest
    from repro.visibility.precompute import (
        BATCH_CELLS, precompute_visibility, worker_count)

    scale = get_scale(args.scale)
    resolution = (args.resolution if args.resolution is not None
                  else scale.hdov.dov_resolution)
    scene, grid = build_scene(scale)

    def progress(done: int, total: int) -> None:
        if not args.quiet:
            print(f"\rprecompute: {done}/{total} cells", end="",
                  file=sys.stderr, flush=True)

    started = time.perf_counter()
    try:
        with use_registry() as registry:
            table = precompute_visibility(
                scene, grid, resolution=resolution,
                samples_per_cell=args.samples, workers=args.workers,
                progress=progress)
            counters = registry.collect()
    finally:
        # Terminate the progress line, error or not.
        if not args.quiet:
            print(file=sys.stderr)
    elapsed = time.perf_counter() - started
    summary = {
        "scale": args.scale,
        "resolution": resolution,
        "samples_per_cell": args.samples,
        "min_dov": 0.0,
        "workers": worker_count(args.workers, grid.num_cells),
        "batch_cells": BATCH_CELLS,
        "cells_total": int(counters.get("precompute_cells_total", 0.0)),
        "rays_cast": int(counters.get("precompute_rays_total", 0.0)),
        "avg_visible": round(table.average_visible(), 3),
        "elapsed_s": round(elapsed, 3),
        "digest": visibility_digest(table),
    }
    return _emit(summary, args.output,
                 f"digest={summary['digest'][:16]}...")


def cmd_serve(args) -> int:
    from repro.serving import run_serve

    report = run_serve(**_run_kwargs(args), sessions=args.sessions,
                       seed=args.seed, frame_budget_ms=args.frame_budget_ms,
                       pool_pages=args.pool_pages, plan=args.plan,
                       fault_seed=args.fault_seed)
    outcome = report["outcome"]
    return _emit(report, args.output,
                 f"completed={outcome['completed']}, "
                 f"{outcome['frames_served']} frames in "
                 f"{outcome['rounds']} rounds", outcome["completed"])


def _default_paths(paths) -> list:
    """The paths to analyse: as given, else ``src`` (or the cwd)."""
    return paths or (["src"] if os.path.isdir("src") else ["."])


def cmd_lint(args) -> int:
    from repro.analysis import all_rules, lint_paths

    if args.rules:
        width = max(len(rule.code) for rule in all_rules())
        for rule in all_rules():
            print(f"  {rule.code:<{width}}  {rule.name}: {rule.summary}")
        return 0
    result = lint_paths(_default_paths(args.paths))
    for diagnostic in result.diagnostics:
        print(diagnostic.format())
    suppressed = ""
    if result.pragma_suppressed:
        suppressed = f" ({result.pragma_suppressed} pragma-suppressed)"
    print(f"repro lint: {len(result.diagnostics)} violation(s) in "
          f"{result.files_checked} file(s){suppressed}")
    return 0 if result.ok else 1


#: Verb -> (handler, the errors that are the user's: bad arguments, an
#: unknown plan or scheme name — reported on stderr with exit code 2;
#: anything else is a crash and keeps its traceback).
COMMANDS: Dict[str, Tuple[Callable[..., int], Tuple[type, ...]]] = {
    "list": (cmd_list, ()),
    "run": (cmd_run, ()),
    "profile": (cmd_profile, (HDoVError,)),
    "chaos": (cmd_chaos, (StorageError, HDoVError)),
    "crash": (cmd_crash, ()),
    "precompute": (cmd_precompute, (VisibilityError,)),
    "serve": (cmd_serve, (ReproError,)),
    "lint": (cmd_lint, (FileNotFoundError,)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, usage_errors = COMMANDS[args.command]
    try:
        return handler(args)
    except usage_errors as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":       # pragma: no cover
    sys.exit(main())
