"""The benchmark's metric catalogue and its summary statistics.

This module is the single source of the metric names, units, directions
and bounds: ``BENCHMARK.json`` at the repository root is ``manifest()``
written to disk (the smoke test asserts they are equal), and ``run.py``
emits exactly these names.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

import numpy as np

from trace import LAYER_TARGETS
from workloads import REASONS

WORKLOADS: Sequence[str] = tuple(REASONS)

#: Seconds one run measures (``--seconds``); see README, "Time budget".
RUN_SECONDS = 12

#: (name, unit, better, bound).  A bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: Timing bounds are what this 2-core shared box can hold (README,
#: "Steadiness"); count bounds cover the seed-to-seed spread of the
#: generated inputs — at a fixed seed the counts repeat exactly.
END_TO_END: Sequence[Tuple[str, str, str, float]] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p99", "ms", "lower", 0.25),
    ("sim_ms_per_op", "ms", "lower", 0.15),
    ("io_pages_per_op", "pages", "lower", 0.15),
    ("stored_mb", "MB", "lower", 1e-6),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("ok_ops_share", "ratio", "higher", 1e-6),
)

#: The five scheme/codec variants of ``point_query_cold``.
VARIANTS: Sequence[Tuple[str, str]] = (
    ("horizontal", "raw"), ("vertical", "raw"), ("vertical", "packed"),
    ("indexed-vertical", "raw"), ("indexed-vertical", "packed"),
)

#: Span groups that are not reported as layers of their own: the
#: accounting window goes under ``serving.session``, and the calibration
#: ticks are the benchmark's, not the program's.
ACCOUNTING = "serving.accounting"
CALIBRATION = "bench.calibration"
TRACED_LAYERS: Sequence[str] = tuple(
    layer for layer in LAYER_TARGETS
    if layer not in (ACCOUNTING, CALIBRATION))

#: Extra per-layer counts: (name, unit, better).
_EXTRAS: Sequence[Tuple[str, str, str]] = (
    ("serving.scheduler.rounds", "count", "lower"),
    ("serving.scheduler.frames", "count", "higher"),
    ("serving.scheduler.frames_per_s", "1/s", "higher"),
    ("serving.session.queries", "count", "higher"),
    ("serving.session.accounting_ms", "ms", "lower"),
    ("core.delta.fetches", "count", "lower"),
    ("core.delta.skipped", "count", "higher"),
    ("core.delta.skip_ratio", "ratio", "higher"),
    ("core.search.nodes_read", "count", "lower"),
    ("core.search.vpages_read", "count", "lower"),
    ("core.search.pruned", "count", "higher"),
    ("core.search.terminated", "count", "higher"),
    ("core.search.recursed", "count", "lower"),
    ("core.schemes.flips", "count", "lower"),
    ("storage.vpagecodec.encode_s", "s", "lower"),
    ("storage.vpagecodec.compression_ratio", "ratio", "lower"),
    ("storage.serializer.decode_node.calls_per_op", "count", "lower"),
    ("storage.serializer.decode_node.self_ms", "ms", "lower"),
    ("storage.buffer.hits", "count", "higher"),
    ("storage.buffer.misses", "count", "lower"),
    ("storage.buffer.coalesced", "count", "higher"),
    ("storage.buffer.evictions", "count", "lower"),
    ("storage.buffer.hit_rate", "ratio", "higher"),
    ("storage.pagedfile.seeks", "count", "lower"),
    ("storage.pagedfile.back_seeks", "count", "lower"),
    ("storage.pagedfile.forward_seeks", "count", "lower"),
    ("storage.pagedfile.sequential_reads", "count", "higher"),
    ("storage.pagedfile.bytes_read", "bytes", "lower"),
    ("storage.pagedfile.bytes_written", "bytes", "lower"),
    ("storage.journal.fsyncs", "count", "lower"),
    ("storage.journal.wal_bytes_per_user_byte", "ratio", "lower"),
    ("storage.recovery.recover_ms", "ms", "lower"),
    ("storage.recovery.pages_replayed", "count", "lower"),
    ("storage.objectstore.heavy_bytes_per_op", "bytes", "lower"),
    ("scene.city.city_s", "s", "lower"),
    ("visibility.precompute.precompute_s", "s", "lower"),
    ("visibility.precompute.cells_per_s", "1/s", "higher"),
    ("core.hdov_tree.build_s", "s", "lower"),
    ("bench.trace.overhead_ratio", "ratio", "lower"),
    ("bench.trace.coverage", "ratio", "higher"),
)


def variant_metric(scheme: str, codec: str) -> str:
    return f"core.schemes.{scheme}.{codec}.op_ms_p50"


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric: (name, unit, better)."""
    out: List[Tuple[str, str, str]] = []
    for layer in TRACED_LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_ms", "ms", "lower"))
        out.append((f"{layer}.us_per_call", "us", "lower"))
    out.extend(_EXTRAS)
    out.extend((variant_metric(scheme, codec), "ms", "lower")
               for scheme, codec in VARIANTS)
    return out


def manifest() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in REASONS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer()],
    }


# -- statistics ---------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile_ms(op_ns: Sequence[int], q: float) -> float:
    return float(np.percentile(np.asarray(op_ns, dtype=np.float64), q)) / 1e6


def latency_profile_ms(op_ns: Sequence[Sequence[int]],
                       speed_factors: Sequence[float]) -> np.ndarray:
    """Latency of each op in ms at reference speed: the median, op by
    op, over the rounds.

    Every round issues the same ops in the same order, so op *i* of one
    round is op *i* of the next.  The median over rounds keeps what is
    the op's own — a pool miss, a large cell, a checkpoint — and drops
    what hit it once from outside (an interrupt, a stalled ``fsync``):
    a quarter of a single round's p99 on the walks is such transients,
    and they made the median of per-round p99s twice as unsteady.
    """
    length = min(len(ns) for ns in op_ns)
    rounds = [np.asarray(ns[:length], dtype=np.float64) / 1e6 / factor
              for ns, factor in zip(op_ns, speed_factors)]
    return np.median(np.vstack(rounds), axis=0)


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median over rounds with its quartiles and sample count."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "rounds": len(values)}
