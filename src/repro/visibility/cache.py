"""Resumable precompute cell cache.

The offline DoV pipeline is the slowest path in the system (the paper:
"the precomputation takes about 1.02 seconds for each cell"), so an
interrupted run should not start over.  The cache is a directory with

* ``manifest.json`` — a magic marker, format version, the grid's cell
  count, and a *content fingerprint* hashing everything the result
  depends on: the scene's packed MBRs, the object ids, the grid
  geometry, and the estimator configuration (resolution, samples per
  cell, DoV floor).  Any of those changing changes the fingerprint, so
  a stale cache can never be silently resumed into wrong tables.
* ``cells.jsonl`` — one JSON line per completed cell, appended and
  flushed as results arrive.  JSON floats round-trip ``float64``
  exactly (``repr`` emits the shortest uniquely-parsing form), so a
  resumed run is bit-identical to an uninterrupted one.

Durability: the manifest is written atomically (temp file + fsync +
rename; see :mod:`repro.storage.atomic`), and every appended cell is
fsync'd before :meth:`PrecomputeCache.record` returns, so a cell
acknowledged to the progress callback survives a power loss.  A crash
between flush and fsync can still leave at most one torn final line;
that line is dropped on load (its cell is simply recomputed) and
counted in
:attr:`PrecomputeCache.torn_lines` — the ``repro crash`` harness sweeps
truncation points over the file to prove exactly this.  Every other way
the directory can be wrong — unreadable manifest, wrong magic/version,
fingerprint mismatch under ``resume=True``, corrupt interior line,
out-of-range cell or DoV — raises a
:class:`~repro.errors.VisibilityError` naming the offending path,
matching :mod:`repro.visibility.persist`.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import IO, Dict, Optional, Tuple

import numpy as np

from repro.errors import VisibilityError
from repro.storage.atomic import atomic_write_text
from repro.visibility.cells import CellGrid

#: Identifies a manifest as ours before any other field is trusted.
MAGIC = "repro-precompute-cache"

#: Cache format version, checked on load.
FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_CELLS = "cells.jsonl"


def precompute_fingerprint(boxes: np.ndarray, object_ids: np.ndarray,
                           grid: CellGrid, resolution: int,
                           samples_per_cell: int, min_dov: float) -> str:
    """Content hash of everything a visibility table depends on."""
    digest = hashlib.sha256()
    digest.update(MAGIC.encode())
    digest.update(np.ascontiguousarray(boxes, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(object_ids,
                                       dtype=np.int64).tobytes())
    grid_spec = (float(grid.origin[0]), float(grid.origin[1]),
                 float(grid.cell_size), grid.cells_x, grid.cells_y,
                 float(grid.eye_height))
    digest.update(repr(grid_spec).encode())
    digest.update(repr((int(resolution), int(samples_per_cell),
                        float(min_dov))).encode())
    return digest.hexdigest()


class PrecomputeCache:
    """Append-only store of per-cell DoV results keyed by a fingerprint.

    Use :meth:`open` rather than the constructor; it validates or
    initialises the on-disk state.
    """

    def __init__(self, path: str, fingerprint: str,
                 num_cells: int) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.num_cells = num_cells
        #: Cells recovered from a previous run, ``{cell_id: {oid: dov}}``.
        self.loaded: Dict[int, Dict[int, float]] = {}
        #: Torn trailing lines dropped during load (0 or 1 per open).
        self.torn_lines = 0
        self._cells_file: Optional[IO[str]] = None

    # -- opening -----------------------------------------------------------

    @classmethod
    def open(cls, path: str, fingerprint: str, num_cells: int,
             resume: bool = True) -> "PrecomputeCache":
        """Open (and validate) or initialise the cache directory.

        With ``resume=True`` an existing cache must match ``fingerprint``
        — a mismatch means the scene/grid/estimator changed and raises
        ``VisibilityError`` instead of silently mixing results.  With
        ``resume=False`` any existing contents are discarded.
        """
        cache = cls(path, fingerprint, num_cells)
        manifest_path = os.path.join(path, _MANIFEST)
        cells_path = os.path.join(path, _CELLS)
        os.makedirs(path, exist_ok=True)
        if resume and os.path.exists(manifest_path):
            cache._validate_manifest(manifest_path)
            cache._load_cells(cells_path)
        else:
            cache._write_manifest(manifest_path)
            with open(cells_path, "w"):
                pass                        # truncate any stale results
        cache._cells_file = open(cells_path, "a")
        return cache

    def _write_manifest(self, manifest_path: str) -> None:
        manifest = {"magic": MAGIC, "version": FORMAT_VERSION,
                    "fingerprint": self.fingerprint,
                    "num_cells": self.num_cells}
        # Atomic + durable: a crash mid-initialisation must leave either
        # no manifest (the cache is re-initialised) or a complete one —
        # a torn manifest would poison every later resume.
        atomic_write_text(manifest_path,
                          json.dumps(manifest, sort_keys=True) + "\n")

    def _validate_manifest(self, manifest_path: str) -> None:
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            raise VisibilityError(
                f"{manifest_path}: corrupt or unreadable precompute-cache "
                f"manifest ({exc})") from exc
        if not isinstance(manifest, dict) or \
                manifest.get("magic") != MAGIC:
            raise VisibilityError(
                f"{manifest_path}: not a precompute-cache manifest")
        if manifest.get("version") != FORMAT_VERSION:
            raise VisibilityError(
                f"{manifest_path}: unsupported cache format version "
                f"{manifest.get('version')!r} (expected {FORMAT_VERSION})")
        if manifest.get("fingerprint") != self.fingerprint:
            raise VisibilityError(
                f"{manifest_path}: stale precompute cache — the scene, "
                f"grid or estimator configuration changed since it was "
                f"written; delete the cache directory or rerun without "
                f"resume")
        if manifest.get("num_cells") != self.num_cells:
            raise VisibilityError(
                f"{manifest_path}: cache covers "
                f"{manifest.get('num_cells')!r} cells, grid has "
                f"{self.num_cells}")

    def _load_cells(self, cells_path: str) -> None:
        if not os.path.exists(cells_path):
            return
        try:
            with open(cells_path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise VisibilityError(
                f"{cells_path}: unreadable precompute cache "
                f"({exc})") from exc
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                if index == len(lines) - 1 and not line.endswith("\n"):
                    # A process killed mid-append leaves exactly one
                    # unterminated tail; the cell is recomputed.
                    self.torn_lines += 1
                    return
                raise VisibilityError(
                    f"{cells_path}: corrupt precompute cache at line "
                    f"{index + 1} ({exc})") from exc
            self._ingest(cells_path, index, entry)

    def _ingest(self, cells_path: str, index: int, entry: object) -> None:
        if not isinstance(entry, dict) or "cell" not in entry \
                or "dov" not in entry or not isinstance(entry["dov"], dict):
            raise VisibilityError(
                f"{cells_path}: corrupt precompute cache at line "
                f"{index + 1} (not a cell record)")
        cell_id = entry["cell"]
        if not isinstance(cell_id, int) or \
                not 0 <= cell_id < self.num_cells:
            raise VisibilityError(
                f"{cells_path}: cell id {cell_id!r} out of range at line "
                f"{index + 1}")
        dov: Dict[int, float] = {}
        for key, value in entry["dov"].items():
            try:
                oid = int(key)
            except ValueError as exc:
                raise VisibilityError(
                    f"{cells_path}: bad object id {key!r} at line "
                    f"{index + 1}") from exc
            if not isinstance(value, (int, float)) or \
                    not 0.0 < float(value) <= 1.0:
                raise VisibilityError(
                    f"{cells_path}: DoV {value!r} out of (0, 1] at line "
                    f"{index + 1}")
            dov[oid] = float(value)
        # Later lines win: a rerun that recomputed a cell appends a
        # fresh record rather than rewriting the file.
        self.loaded[cell_id] = dov

    # -- writing -----------------------------------------------------------

    def record(self, cell_id: int, dov: Dict[int, float]) -> None:
        """Append one completed cell, durably.

        ``flush()`` alone only hands the line to the OS, which loses
        acknowledged cells on power loss: the record is fsync'd before
        this returns, so an acknowledged cell is a durable cell.
        """
        if self._cells_file is None:
            raise VisibilityError("precompute cache is closed")
        line = json.dumps({"cell": cell_id,
                           "dov": {str(oid): value
                                   for oid, value in sorted(dov.items())}},
                          sort_keys=True)
        self._cells_file.write(line + "\n")
        self._cells_file.flush()
        os.fsync(self._cells_file.fileno())

    def close(self) -> None:
        if self._cells_file is not None:
            self._cells_file.flush()
            os.fsync(self._cells_file.fileno())
            self._cells_file.close()
            self._cells_file = None

    def __enter__(self) -> "PrecomputeCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"PrecomputeCache(path={self.path!r}, "
                f"loaded={len(self.loaded)}/{self.num_cells})")
