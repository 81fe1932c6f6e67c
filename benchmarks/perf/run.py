"""The repository's benchmark: one command per workload.

    python3 benchmarks/perf/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

builds the workload's inputs from ``--seed``, sets the program up
(timed), runs one discarded warm-up round and then measured rounds for
``--seconds`` seconds, checks every answer, and prints — as the last
line of standard output — one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` one more round runs under the
outside-in tracer and the metrics are the per-layer ones.  A detail
object (quartiles, round counts, input digest) is printed on the line
before.  Exits 1 when an answer was wrong, 2 when the program's source
is not there to measure.

``--selfcheck`` repeats the command over several seeds, twice, and
compares the two sets against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(REPO, "src")

#: Fewest measured rounds of a run, however slow the machine (traced
#: runs: fewest untraced rounds before the traced one).
MIN_ROUNDS = 3
MIN_UNTRACED_ROUNDS = 2
#: Share of ``--seconds`` a traced run spends on untraced rounds (the
#: base of ``overhead_ratio``) before the one traced round.
TRACE_UNTRACED_SHARE = 0.4


def _import_benchmark():
    """The benchmark's modules, importable only next to the program."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"benchmark: no program to measure under {SOURCE}",
              file=sys.stderr)
        raise SystemExit(2)
    for path in (SOURCE, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import drivers
    import oracle
    import report
    import trace as tracing
    return drivers, oracle, report, tracing


def _measure_rounds(driver, seconds: float, at_least: int) -> List:
    """Rounds until ``seconds`` have been measured, ``at_least`` so
    many."""
    results = []
    measured = 0.0
    while len(results) < at_least or measured < seconds:
        results.append(driver.run_round())
        measured += results[-1].wall_s
    return results


def run(workload: str, *, seed: int, seconds: float, trace: bool,
        smoke: bool = False, spans_out: Optional[str] = None,
        workdir: Optional[str] = None) -> Dict[str, object]:
    """Run one workload; returns ``{"result": ..., "detail": ...}``."""
    drivers, oracle, report, tracing = _import_benchmark()
    profile = drivers.SMOKE if smoke else drivers.FULL
    if smoke:
        seconds = 0.0
    if workdir is None:
        workdir = os.path.join(os.getcwd(), ".bench_build",
                               f"perf-{os.getpid()}")
    driver = drivers.make_driver(workload, profile, seed, workdir)
    try:
        setup = driver.setup()
        # Set-up garbage is collected once and the survivors frozen, so
        # that collections during rounds scan the round's objects only.
        gc.collect()
        gc.freeze()
        warmup = driver.run_round()
        if trace:
            rounds = _measure_rounds(driver, seconds * TRACE_UNTRACED_SHARE,
                                     MIN_UNTRACED_ROUNDS)
        else:
            rounds = _measure_rounds(driver, seconds,
                                     2 if smoke else MIN_ROUNDS)
        traced = summary = None
        if trace:
            tracer = tracing.Tracer()
            with tracer:
                traced = driver.run_round()
            summary = tracer.summarize(traced.region_ns)
            if spans_out is not None:
                tracer.write(spans_out)
        stored_bytes = driver.stored_bytes()
        encode_s = driver.encode_seconds() if trace else 0.0
        input_digest = driver.input_digest()
    finally:
        driver.close()

    checked = [warmup] + rounds + ([traced] if traced is not None else [])
    verdict = oracle.Verdict()
    for result in rounds:
        verdict.merge(result.verdict)
    attempted = sum(r.ops for r in rounds)
    # The warm-up and traced rounds are checked too; they cannot add to
    # ``failed`` beyond what was attempted, but they can make the run
    # incorrect.
    correct = all(r.verdict.ok for r in checked)
    notes = [n for r in checked for n in r.verdict.notes][:20]
    moved = oracle.check_counts_repeat([r.counts for r in checked])
    if moved:
        correct = False
        notes.append("counts differ between rounds: " + "; ".join(moved[:5]))

    # Every reported time is at reference speed (calibration.py): raw
    # time over the speed factor of the round it was taken in.
    latency = report.latency_profile_ms(
        [r.op_ns for r in rounds], [r.speed_factor for r in rounds])
    per_round = {
        "ops_per_s": [r.ops / r.work_s for r in rounds],
        "op_ms_p50": [report.percentile_ms(r.op_ns, 50) / r.speed_factor
                      for r in rounds],
        "op_ms_p99": [report.percentile_ms(r.op_ns, 99) / r.speed_factor
                      for r in rounds],
    }
    counts = rounds[0].counts
    failed = min(verdict.failed_ops, attempted)
    detail: Dict[str, object] = {
        "workload": workload, "seed": seed, "smoke": smoke,
        "input_digest": input_digest,
        "rounds": len(rounds), "ops_per_round": rounds[0].ops,
        "samples_per_round": len(rounds[0].op_ns),
        "timings": {name: report.timing_summary(values)
                    for name, values in per_round.items()},
        "raw": {
            "setup_s": setup.raw_seconds,
            "round_wall_s": [r.wall_s for r in rounds],
            "round_speed_factor": [r.speed_factor for r in rounds],
            "ops_per_s": statistics.median(
                r.ops / r.wall_s for r in rounds),
            "op_ms_p50": statistics.median(
                report.percentile_ms(r.op_ns, 50) for r in rounds),
        },
        "notes": notes,
    }
    if not trace:
        values = {
            "setup_s": setup.seconds,
            "ops_per_s": statistics.median(per_round["ops_per_s"]),
            "op_ms_p50": float(np.percentile(latency, 50)),
            "op_ms_p99": float(np.percentile(latency, 99)),
            "sim_ms_per_op": counts["sim_ms_per_op"],
            "io_pages_per_op": counts["io_pages_per_op"],
            "stored_mb": stored_bytes / 1e6,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_share": 1.0 - failed / attempted,
        }
        units = {name: unit for name, unit, _b, _bound in report.END_TO_END}
    else:
        assert traced is not None and summary is not None
        values = _layer_metrics(report, summary, traced, rounds, latency,
                                setup.phases, encode_s)
        units = {name: unit for name, unit, _b in report.per_layer()}
    for name, value in values.items():
        if not math.isfinite(value):
            correct = False
            notes.append(f"{name} is not finite")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return {
        "detail": detail,
        "result": {"correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def _layer_metrics(report, summary, traced, rounds, latency, setup_phases,
                   encode_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer is not
    on the workload's path); times at the traced round's reference
    speed."""
    factor = traced.speed_factor
    values: Dict[str, float] = {
        name: 0.0 for name, _unit, _better in report.per_layer()}
    for layer in report.TRACED_LAYERS:
        totals = summary.layer(layer)
        values[f"{layer}.calls"] = float(totals.calls)
        values[f"{layer}.self_ms"] = totals.self_ms / factor
        values[f"{layer}.us_per_call"] = totals.us_per_call / factor
    # Counts of the traced round (identical to every other round's).
    values.update((name, value) for name, value in traced.counts.items()
                  if name in values)
    values.update(setup_phases)
    for name, value in traced.timings.items():
        values[name] = value / factor
    values["serving.scheduler.frames_per_s"] = (
        values["serving.scheduler.frames"] / traced.work_s)
    decode_node = summary.callable("decode_node")
    values["storage.serializer.decode_node.calls_per_op"] = (
        decode_node.calls / traced.ops)
    values["storage.serializer.decode_node.self_ms"] = (
        decode_node.self_ms / factor)
    values["serving.session.accounting_ms"] = summary.layer(
        report.ACCOUNTING).self_ms / factor
    values["storage.journal.fsyncs"] = float(
        summary.callable("WriteAheadJournal.sync").calls
        + summary.callable("WriteAheadJournal.reset").calls)
    values["storage.vpagecodec.encode_s"] = encode_s
    # Per-variant latency comes from the untraced rounds.
    labels = rounds[0].op_labels
    if labels is not None:
        labels = np.asarray(labels[:len(latency)])
        for label in np.unique(labels):
            values[str(label)] = float(
                np.percentile(latency[labels == label], 50))
    values["bench.trace.overhead_ratio"] = traced.work_s / statistics.median(
        r.work_s for r in rounds)
    # The ticks sit inside the traced window but belong to no layer.
    ticks_ns = summary.layer(report.CALIBRATION).total_ns
    values["bench.trace.coverage"] = (
        (summary.thread_self_ns.get(threading.get_ident(), 0) - ticks_ns)
        / (summary.window_ns - ticks_ns))
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scene and two rounds; tests only, "
                             "never reported")
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1: write the raw spans here "
                             "as JSON lines")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload over several seeds, "
                             "twice, and compare against the bounds")
    parser.add_argument("--runs", type=int, default=10,
                        help="--selfcheck: runs per set")
    args = parser.parse_args(argv)
    _drivers, _oracle, report, _tracing = _import_benchmark()
    if args.selfcheck:
        import selfcheck
        names = ([args.workload] if args.workload
                 else list(report.WORKLOADS))
        return selfcheck.main(names, runs=args.runs)
    if args.workload not in report.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(report.WORKLOADS)}")
    seconds = (args.seconds if args.seconds is not None
               else float(report.RUN_SECONDS))
    started = time.perf_counter()
    outcome = run(args.workload, seed=args.seed, seconds=seconds,
                  trace=bool(args.trace), smoke=args.smoke,
                  spans_out=args.spans_out)
    outcome["detail"]["run_wall_s"] = time.perf_counter() - started
    print(json.dumps(outcome["detail"]))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
