"""Bench: delta-compressed V-pages, raw vs packed over the replay kernel.

Replays the loop walkthrough on the SMALL scale twice per segment
scheme — once on the raw one-record-per-page build, once on a packed
build of the same dataset (``build_world(compress=True, like=)``; each
build lays out both schemes) —
and emits ``BENCH_compression.json`` with the machine-free ratios the
regression gate tracks:

* ``light_bytes_improvement`` — raw V-page bytes read / packed V-page
  bytes read (> 1: the packed stream reads strictly less);
* ``compression_inverse_ratio`` — raw page bytes / encoded stream
  bytes of the packed codec.

The structural guarantees are asserted here too: every query of the
walk selects the same LoDs under both codecs, heavy (model) I/O is
field-for-field equal, and the report is byte-identical across two
runs — every number is a pure function of (scale, session, eta), no
wall clock anywhere.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.delta import DeltaSearch
from repro.obs.replay import build_world, load_scale, replay, session_path
from repro.visibility.dov import visibility_digest

OUTPUT = "BENCH_compression.json"
SCHEMES = ("vertical", "indexed-vertical")
SESSION = 4          # the loop circuit
ETA = 0.001


def measure(signatures):
    """One report; ``signatures`` is the list the patched
    ``DeltaSearch.query_cell`` appends each query's selection to."""
    experiment = load_scale("small")

    raw_env = build_world(experiment, schemes=SCHEMES)
    packed_env = build_world(experiment, schemes=SCHEMES, compress=True,
                             like=raw_env)
    path = session_path(experiment, raw_env, SESSION)

    def walk(env, name):
        del signatures[:]
        replay(experiment, env, path, eta=ETA, scheme=name)
        digest = hashlib.sha256(json.dumps(
            signatures, separators=(",", ":")).encode()).hexdigest()
        return (env.light_stats.snapshot(), env.heavy_stats.snapshot(),
                digest)

    schemes = {}
    for name in SCHEMES:
        light, heavy, digest = walk(raw_env, name)
        packed_light, packed_heavy, packed_digest = walk(packed_env, name)
        assert packed_digest == digest, f"{name}: selections diverged"
        assert packed_heavy == heavy, \
            f"{name}: heavy I/O changed under compression"
        assert packed_light.bytes_read < light.bytes_read, \
            f"{name}: compression did not cut V-page bytes"
        compression = packed_env.scheme(name).codec.compression_stats()
        schemes[name] = {
            "light_bytes_baseline": light.bytes_read,
            "light_bytes_compressed": packed_light.bytes_read,
            "light_bytes_improvement": round(
                light.bytes_read / packed_light.bytes_read, 4),
            "compression_inverse_ratio": round(
                compression["raw_bytes"] / compression["encoded_bytes"],
                4),
            "delta_records": compression["delta_records"],
            "records": compression["records"],
            "selection_digest": digest,
        }
    return {
        "scale": experiment.name,
        "session": path.name,
        "eta": ETA,
        "frames": path.num_frames,
        "cells": raw_env.grid.num_cells,
        "visibility_digest": visibility_digest(raw_env.visibility),
        "schemes": schemes,
    }


def test_vpage_compression(capsys, monkeypatch):
    signatures = []
    query_cell = DeltaSearch.query_cell

    def recording(self, cell_id, eta):
        result = query_cell(self, cell_id, eta)
        signatures.append([
            cell_id,
            [sorted((o.object_id, repr(o.fraction))
                    for o in result.objects),
             sorted((i.node_offset, repr(i.fraction))
                    for i in result.internals)]])
        return result

    monkeypatch.setattr(DeltaSearch, "query_cell", recording)
    report = measure(signatures)
    assert json.dumps(report, sort_keys=True) \
        == json.dumps(measure(signatures), sort_keys=True), \
        "compression report is not byte-deterministic"
    with open(OUTPUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with capsys.disabled():
        print()
        print("V-page compression "
              f"({report['session']}, {report['frames']} frames):")
        for name, row in report["schemes"].items():
            print(f"  {name}: V-page bytes "
                  f"{row['light_bytes_baseline']} -> "
                  f"{row['light_bytes_compressed']} "
                  f"({row['light_bytes_improvement']}x), stream "
                  f"{row['compression_inverse_ratio']}x smaller")
