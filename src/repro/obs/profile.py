"""``repro profile`` — an instrumented walkthrough with a JSON report.

Builds a fresh environment against a *fresh* metrics registry and an
enabled trace recorder, replays a walkthrough session through the VISUAL
system, and assembles a report answering "where do the simulated
milliseconds go":

* per-phase wall-clock (build vs walkthrough, plus the span summary of
  search / flip_to_cell / per-frame work);
* per-file I/O counters (reads, writes, seeks, sequential, bytes,
  simulated ms) straight from the metrics registry;
* a **reconciliation** of those per-file counters against the
  environment's :class:`~repro.storage.disk.IOStats` totals.  The two
  are not independent: ``PagedFile._charge`` books both in one call.
  What agreement proves is narrower: each file's series sum to the
  group ledger the file is attached to (a file attached to the wrong
  group, or a ledger reset mid-run, shows as a mismatch);
* cache behaviour (delta-search fetch/skip, scheme flips) and
  traversal decision counts (pruned / terminated / recursed).

The report is plain dict/list/scalar data, ready for ``json.dump``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.replay import (build_world, load_scale, replay,
                              session_path, unbalanced_fields)
from repro.obs.trace import TraceRecorder, span, use_tracer
from repro.storage.disk import IOStats
from repro.storage.pagedfile import PagedFile


def _per_file_io(registry: MetricsRegistry, baseline: Dict[str, float],
                 files: List[PagedFile]) -> Dict[str, Dict[str, float]]:
    """Registry counter deltas since ``baseline``, grouped per file."""
    delta = registry.delta(baseline)
    metric_of = {
        names.PAGEDFILE_READS: "reads",
        names.PAGEDFILE_WRITES: "writes",
        names.PAGEDFILE_SEEKS: "seeks",
        names.PAGEDFILE_BACK_SEEKS: "back_seeks",
        names.PAGEDFILE_FORWARD_SEEKS: "forward_seeks",
        names.PAGEDFILE_SEQUENTIAL: "sequential_reads",
        names.PAGEDFILE_BYTES_READ: "bytes_read",
        names.PAGEDFILE_BYTES_WRITTEN: "bytes_written",
        names.PAGEDFILE_SIMULATED_MS: "simulated_ms",
    }
    out: Dict[str, Dict[str, float]] = {}
    for pfile in files:
        out[pfile.name] = {
            field: delta.get(f'{metric}{{file="{pfile.name}"}}', 0.0)
            for metric, field in metric_of.items()}
    return out


def reconcile(per_file: Dict[str, Dict[str, float]],
              files: List[PagedFile],
              stats_by_name: Dict[str, IOStats]) -> Dict[str, object]:
    """Check per-file registry counters against ``IOStats`` totals.

    Files sharing one ``IOStats`` (the light-weight group) are summed
    before comparing.  Returns ``{"ok": bool, "groups": {...}}`` with a
    per-group breakdown of both sides.
    """
    name_of_stats = {id(stats): name
                     for name, stats in stats_by_name.items()}
    groups: Dict[int, Dict[str, object]] = {}
    for pfile in files:
        group = groups.setdefault(id(pfile.stats), {
            "stats": name_of_stats.get(id(pfile.stats), "unknown"),
            "files": [],
            "counted": dict.fromkeys(IOStats().to_dict(), 0.0),
            "expected": pfile.stats.to_dict(),
        })
        group["files"].append(pfile.name)
        for field, value in per_file[pfile.name].items():
            group["counted"][field] += value

    ok = not any(unbalanced_fields(group["counted"], group["expected"])
                 for group in groups.values())
    return {"ok": ok, "groups": list(groups.values())}


def run_profile(*, scale: str = "small", session: int = 1,
                eta: float = 0.001, frames: Optional[int] = None,
                scheme: Optional[str] = None,
                compress: bool = False) -> Dict[str, object]:
    """Run one instrumented walkthrough; returns the JSON-ready report.

    Parameters
    ----------
    scale:
        Experiment scale name (``small`` / ``medium`` / ``large``).
    session:
        Motion pattern 1, 2, 3 or 4 (Section 5.4's recorded sessions
        plus the loop circuit).
    eta:
        DoV threshold for the VISUAL system.
    frames:
        Frame count override (defaults to the scale's session length).
    scheme:
        Storage scheme to walk (defaults to the scale's only scheme).
    compress:
        Build with the packed delta V-page codec (``repro profile
        --compress``); the ``layout`` section then shows a real
        compression ratio instead of 1.0.
    """
    experiment = load_scale(scale)
    registry = MetricsRegistry()
    tracer = TraceRecorder(enabled=True)
    with use_registry(registry), use_tracer(tracer):
        with span("build") as build_span:
            env = build_world(experiment, compress=compress)
            scene, grid = env.scene, env.grid
            if build_span is not None:
                build_span.attrs.update(objects=len(scene),
                                        nodes=env.node_store.num_nodes,
                                        cells=grid.num_cells)
        # build_environment resets IOStats after preprocessing; snapshot
        # the registry at the same point so both accounting paths cover
        # exactly the walkthrough that follows.
        baseline = registry.snapshot()

        path = session_path(experiment, env, session, frames)
        with span("walkthrough", session=path.name):
            system, report = replay(experiment, env, path, eta=eta,
                                    scheme=scheme)

        files = env.files()
        per_file = _per_file_io(registry, baseline, files)
        reconciliation = reconcile(per_file, files, {
            "light": env.light_stats, "heavy": env.heavy_stats})

        frame_times = report.frame_times()
        queried_frames = sum(1 for f in report.frames if f.total_ios > 0)
        active_scheme = system.delta.search.scheme
        summary = tracer.summarize()

        return {
            "profile": {
                "scale": scale,
                "session": path.name,
                "eta": eta,
                "scheme": active_scheme.name,
                "frames": path.num_frames,
                "compress": compress,
            },
            "scene": {
                "objects": len(scene),
                "polygons": scene.total_polygons(),
                "model_bytes": scene.total_bytes(),
                "tree_nodes": env.node_store.num_nodes,
                "tree_height": env.tree.height,
                "cells": grid.num_cells,
            },
            "phases": {
                name: {
                    "wall_ms": round(agg["total_ms"], 3),
                    "count": int(agg["count"]),
                }
                for name, agg in summary.items()
            },
            "frames": {
                "count": len(report.frames),
                "queried": queried_frames,
                "avg_frame_ms": sum(frame_times) / len(frame_times),
                "max_frame_ms": max(frame_times),
                "avg_search_ms": report.avg_search_ms(),
                "avg_query_search_ms": report.avg_query_search_ms(),
                "avg_ios": report.avg_ios(),
                "peak_resident_bytes": report.peak_resident_bytes(),
            },
            "io": {
                "files": per_file,
                "totals": {
                    "light": env.light_stats.to_dict(),
                    "heavy": env.heavy_stats.to_dict(),
                },
                "reconciled": reconciliation["ok"],
                "reconciliation": reconciliation["groups"],
                # Crash-consistency counters (PR 8).  All zero in a
                # plain walkthrough — the environment's files are not
                # journaled — but any journaled file opened inside the
                # profiled registry shows up here, and a nonzero
                # replay/truncation count is the profile-level signal
                # that the run started from a crashed state.
                "journal": {
                    "records": registry.total(names.JOURNAL_RECORDS),
                    "commits": registry.total(names.JOURNAL_COMMITS),
                    "recovery_pages_replayed": registry.total(
                        names.RECOVERY_PAGES_REPLAYED),
                    "recovery_tail_truncations": registry.total(
                        names.RECOVERY_TAIL_TRUNCATIONS),
                },
            },
            # Disk-layout view of the same run: the seek *direction*
            # split per file (back seeks measure how far the storage
            # order is from the access order) and the V-page codec's
            # byte accounting.  The split is internally checked (back +
            # forward == seeks, per file) on top of the IOStats
            # reconciliation above.
            "layout": {
                "seeks": {
                    fname: {
                        "seeks": row["seeks"],
                        "back_seeks": row["back_seeks"],
                        "forward_seeks": row["forward_seeks"],
                        "split_ok": (row["back_seeks"]
                                     + row["forward_seeks"]
                                     == row["seeks"]),
                    }
                    for fname, row in per_file.items()
                },
                "codecs": {
                    scheme_name: dict(
                        env_scheme.codec.compression_stats(),
                        vpage_bytes=(env_scheme.storage_breakdown()
                                     .vpage_bytes),
                    )
                    for scheme_name, env_scheme in env.schemes.items()
                },
            },
            "cache": {
                "delta_search": {
                    "fetches": system.delta.fetches,
                    "skipped": system.delta.skipped,
                    "evictions": system.delta.evictions,
                    "resident_bytes": system.delta.resident_bytes,
                },
                "scheme": {
                    "flips": active_scheme.flips,
                },
            },
            "search": {
                "queries": registry.value(names.SEARCH_QUERIES,
                                          scheme=active_scheme.name),
                "nodes_read": registry.value(names.SEARCH_NODES_READ,
                                             scheme=active_scheme.name),
                "vpages_read": registry.value(names.SEARCH_VPAGES_READ,
                                              scheme=active_scheme.name),
                "pruned": registry.value(names.SEARCH_PRUNED,
                                         scheme=active_scheme.name),
                "terminated": registry.value(names.SEARCH_TERMINATED,
                                             scheme=active_scheme.name),
                "recursed": registry.value(names.SEARCH_RECURSED,
                                           scheme=active_scheme.name),
            },
            "metrics": registry.delta(baseline),
        }
