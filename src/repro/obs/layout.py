"""``repro layout`` — measure, rewrite, and re-measure the disk layout.

For each requested scheme the runner:

1. builds a **fresh** environment (never the shared experiment cache —
   the rewrite mutates the V-page file in place);
2. replays a walkthrough session, recording per-frame I/O deltas and a
   canonical signature of every query's LoD selection;
3. derives the cell tour from the session's own cell trace
   (:func:`repro.storage.layout.affinity_graph` +
   :func:`~repro.storage.layout.tour_order`), rewrites the scheme, and
   replays again;
4. repeats both replays on a compressed (packed delta codec) build.

The report asserts the structural guarantees the benchmark gates on:
LoD selections are frame-for-frame identical across all four variants
(same `visibility_digest`, same selection digest), back seeks strictly
drop after the rewrite, and V-page bytes strictly drop under
compression while heavy (model) I/O stays exactly equal.

Everything here is a pure function of the inputs — no wall clock, no
ambient randomness — so two runs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.hdov_tree import HDoVEnvironment
from repro.core.search import HDoVSearch
from repro.errors import ExperimentError
from repro.obs.replay import build_world, load_scale, session_path
from repro.storage.disk import IOStats
from repro.storage.layout import (RewriteReport, affinity_graph,
                                  rewrite_scheme, tour_order)
from repro.visibility.persist import visibility_digest

#: Schemes the rewriter supports end to end.  The horizontal scheme can
#: carry a layout remap too, but its all-cells-interleaved page formula
#: is the pathology the paper replaces, so the CLI does not measure it.
DEFAULT_SCHEMES: Tuple[str, ...] = ("vertical", "indexed-vertical")


@dataclass(frozen=True)
class ReplayResult:
    """One measured replay: I/O totals plus the selection digest."""

    frames: int
    queries: int
    light: IOStats
    heavy: IOStats
    selection_digest: str
    per_frame_back_seeks: float


def _selection_signature(result: object) -> List[object]:
    """Canonical, JSON-stable form of one query's LoD selection."""
    objects = sorted((o.object_id, repr(o.fraction))
                     for o in result.objects)        # type: ignore[attr-defined]
    internals = sorted((i.node_offset, repr(i.fraction))
                       for i in result.internals)    # type: ignore[attr-defined]
    return [objects, internals]


def _replay(env: HDoVEnvironment, scheme_name: str,
            cell_trace: Sequence[int], eta: float) -> ReplayResult:
    """Walk the per-frame ``cell_trace`` once, from cold state, with a
    full (not delta) query at every cell change."""
    env.reset_runtime_state()
    searcher = HDoVSearch(env, scheme_name)
    signatures: List[object] = []
    for cell_id, _frames in groupby(cell_trace):
        result = searcher.query_cell(cell_id, eta)
        signatures.append([cell_id, _selection_signature(result)])
    digest = hashlib.sha256(
        json.dumps(signatures, separators=(",", ":")).encode()).hexdigest()
    light = env.light_stats.snapshot()
    heavy = env.heavy_stats.snapshot()
    return ReplayResult(
        frames=len(cell_trace), queries=len(signatures),
        light=light, heavy=heavy, selection_digest=digest,
        # No I/O happens between queries, so the mean of the per-frame
        # deltas is the total over the frame count.
        per_frame_back_seeks=((light.back_seeks + heavy.back_seeks)
                              / len(cell_trace)),
    )


def _replay_dict(replay: ReplayResult) -> Dict[str, object]:
    def stats(io: IOStats) -> Dict[str, float]:
        # Replays only read; the write counters would be constant zeros.
        fields = io.to_dict()
        del fields["writes"], fields["bytes_written"]
        fields["simulated_ms"] = round(io.simulated_ms, 6)
        return fields
    return {
        "frames": replay.frames,
        "queries": replay.queries,
        "light": stats(replay.light),
        "heavy": stats(replay.heavy),
        "back_seeks_per_frame": round(replay.per_frame_back_seeks, 6),
        "selection_digest": replay.selection_digest,
    }


def _rewrite_dict(report: RewriteReport) -> Dict[str, object]:
    return {
        "cells": report.cells,
        "pointers_remapped": report.pointers_remapped,
        "pages_moved": report.pages_moved,
    }


def run_layout(*, scale: str = "small", session: int = 4,
               eta: float = 0.001, frames: Optional[int] = None,
               schemes: Sequence[str] = DEFAULT_SCHEMES
               ) -> Dict[str, object]:
    """Measure the layout rewrite and V-page compression; see module doc.

    Returns the JSON-ready report; ``report["ok"]`` is the conjunction
    of every structural check.
    """
    for name in schemes:
        if name not in DEFAULT_SCHEMES:
            raise ExperimentError(
                f"layout rewriting measures {DEFAULT_SCHEMES}, "
                f"not {name!r}")

    if not schemes:
        raise ExperimentError("layout rewriting needs a scheme to measure")

    experiment = load_scale(scale)
    # One dataset: the first measured world also supplies the scene,
    # grid and visibility table that every later variant is built
    # `like`, so the variants provably share their ground truth.
    dataset = build_world(experiment, schemes=(schemes[0],))
    grid = dataset.grid
    path = session_path(experiment, dataset, session, frames)
    cell_trace = [grid.cell_of_point(wp.position_array())
                  for wp in path]
    neighbors = {cid: grid.neighbors(cid) for cid in grid.cell_ids()}
    tour = tour_order(list(grid.cell_ids()),
                      affinity_graph(cell_trace, neighbors))

    def fresh_env(scheme_name: str, compress: bool) -> HDoVEnvironment:
        return build_world(experiment, schemes=(scheme_name,),
                           compress=compress, like=dataset)

    scheme_reports: Dict[str, Dict[str, object]] = {}
    all_ok = True
    for index, scheme_name in enumerate(schemes):
        env = (dataset if index == 0
               else fresh_env(scheme_name, compress=False))
        baseline = _replay(env, scheme_name, cell_trace, eta)
        rewrite = rewrite_scheme(env.scheme(scheme_name), tour)
        rewritten = _replay(env, scheme_name, cell_trace, eta)

        env_packed = fresh_env(scheme_name, compress=True)
        compressed = _replay(env_packed, scheme_name, cell_trace, eta)
        compression = env_packed.scheme(scheme_name).codec \
            .compression_stats()
        rewrite_packed = rewrite_scheme(env_packed.scheme(scheme_name),
                                        tour)
        compressed_rewritten = _replay(env_packed, scheme_name, cell_trace, eta)

        variants = (baseline, rewritten, compressed, compressed_rewritten)
        checks = {
            # Same pixels: every variant selected the same LoDs on
            # every frame, so fidelity is untouched by construction.
            "selections_identical": len(
                {v.selection_digest for v in variants}) == 1,
            # ... which must also show up as *exactly* equal heavy
            # (model) I/O — the models fetched are a function of the
            # selections alone.
            "heavy_io_identical": len(
                {(v.heavy.reads, v.heavy.bytes_read, v.heavy.seeks)
                 for v in variants}) == 1,
            # The rewrite's point: strictly fewer back seeks.
            "back_seeks_improved":
                rewritten.light.back_seeks < baseline.light.back_seeks,
            # Compression's point: strictly fewer V-page (light) bytes.
            "light_bytes_improved":
                compressed.light.bytes_read < baseline.light.bytes_read,
            "total_bytes_improved":
                (compressed.light.bytes_read + compressed.heavy.bytes_read)
                < (baseline.light.bytes_read + baseline.heavy.bytes_read),
        }
        all_ok = all_ok and all(checks.values())
        scheme_reports[scheme_name] = {
            "baseline": _replay_dict(baseline),
            "rewritten": dict(_replay_dict(rewritten),
                              rewrite=_rewrite_dict(rewrite)),
            "compressed": dict(_replay_dict(compressed),
                               compression=compression),
            "compressed_rewritten": dict(
                _replay_dict(compressed_rewritten),
                rewrite=_rewrite_dict(rewrite_packed)),
            "checks": checks,
        }

    return {
        "layout": {
            "scale": scale,
            "session": path.name,
            "eta": eta,
            "frames": path.num_frames,
            "cells": grid.num_cells,
            "tour_head": list(tour[:16]),
        },
        "visibility_digest": visibility_digest(dataset.visibility),
        "schemes": scheme_reports,
        "ok": all_ok,
    }
