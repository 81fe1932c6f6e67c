"""Predictive prefetch into the buffer pool — the one prefetcher.

REVIEW's paper [12] lists prefetching among its optimizations; for the
HDoV-tree the natural unit is the *next cell*: read the pages a
predicted cell flip will demand — its index segment, and the V-pages
that segment points to — into the buffer pool before the flip happens,
so the work lands on a quiet frame instead of the crossing frame.  The
pool is the only place speculative bytes live: a scheme's flip reads
through it and hits.  ``repro serve --prefetch`` shares one prefetcher
across all sessions; ``repro run ext-prefetch`` drives one as session 0
over a private pool.

Determinism contract (the serve report is byte-diffed in CI):

* **planning** happens in the scheduler's *serialized* phase 1, via
  :meth:`observe` — one call per session per round, in session-id
  order.  Observation does no I/O: it trains the shared
  :class:`~repro.walkthrough.transition.CellTransitionModel` and queues
  predicted targets.
* **issuing** happens in phase 2, via :meth:`issue_round` — exactly one
  internally-serialized batch per round.  Phase 2 otherwise runs pure
  scoring math, so the speculative reads are the only I/O in flight and
  the shared clock's seek accounting stays order-independent of the
  worker count.
* prefetch I/O is charged to the prefetcher's own ledger (an
  ``env.snapshot``/``delta`` window around the batch), never to a
  session — ``repro serve``'s reconciliation adds the ledger back in,
  so sessions + prefetch == environment still balances exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.hdov_tree import HDoVEnvironment
from repro.core.schemes.base import SegmentScheme, StorageScheme
from repro.storage import pageio
from repro.storage.buffer import BufferPool
from repro.storage.disk import IOStats
from repro.storage.pagedfile import PagedFile
from repro.walkthrough.transition import CellTransitionModel


#: V-pages chased per predicted cell per round; the index segment
#: itself is always fetched whole.
MAX_VPAGES = 8


def _prefetch_reader(pfile: PagedFile, page_id: int) -> bytes:
    """Pool miss reader for speculative reads: same sanctioned facade as
    demand reads, its own component label for the traffic breakdown."""
    return pageio.read_page(pfile, page_id, component="prefetch")


class ServingPrefetcher:
    """Plans per-round pool prefetches from a shared transition model.

    Parameters
    ----------
    pool:
        The shared serving pool speculative reads land in.
    env:
        The parent environment (shared stats ledgers; the snapshot
        window for prefetch I/O attribution).
    trigger_fraction:
        Lookahead of the velocity prior, as a fraction of the cell size
        (forwarded to the :class:`CellTransitionModel`).
    """

    def __init__(self, pool: BufferPool, env: HDoVEnvironment, *,
                 trigger_fraction: float = 0.5) -> None:
        self.pool = pool
        self.env = env
        self.model = CellTransitionModel(
            env.grid, trigger_fraction=trigger_fraction)
        #: Targets planned this round: cell id -> scheme view to address
        #: pages through (insertion order == session-id order, so the
        #: issue order is deterministic).
        self._pending: "OrderedDict[int, StorageScheme]" = OrderedDict()
        #: Per-session motion memory for transition training.
        self._last_cell: Dict[int, int] = {}
        self._last_position: Dict[int, np.ndarray] = {}
        #: Per-session outstanding prediction, for accuracy accounting.
        self._predicted: Dict[int, int] = {}
        self.planned_cells = 0
        self.index_pages_issued = 0
        self.vpages_issued = 0
        self.predictions = 0
        self.correct_predictions = 0
        #: Prefetch I/O ledgers (the reconciliation's third column).
        self.light_total = IOStats()
        self.heavy_total = IOStats()

    # -- phase 1: planning (serialized, session-id order) ---------------------

    def observe(self, session_id: int, cell_id: int,
                position: np.ndarray, scheme: StorageScheme) -> None:
        """Record one session's frame position; maybe queue a target.

        Called from ``ServingSession.step`` — serialized phase 1 — so
        model updates and the pending queue are single-threaded and
        deterministic.  Does no I/O.
        """
        last_cell = self._last_cell.get(session_id)
        if last_cell is not None and last_cell != cell_id:
            self.model.record_transition(last_cell, cell_id)
            predicted = self._predicted.pop(session_id, None)
            if predicted is not None and predicted == cell_id:
                self.correct_predictions += 1
        target = self.model.predict(
            cell_id,
            self.model.velocity_cell(position,
                                     self._last_position.get(session_id)))
        self._last_cell[session_id] = cell_id
        self._last_position[session_id] = position.copy()
        if target is not None:
            self.predictions += 1
            self._predicted[session_id] = target
            if target not in self._pending:
                self._pending[target] = scheme

    # -- phase 2: one serialized speculative batch ----------------------------

    def issue_round(self) -> None:
        """Issue every queued prefetch as one deterministic batch.

        Runs on a single thread; the I/O order is the pending-queue
        order, so the shared clock's head position evolves identically
        run to run.  The batch's charges go to the prefetcher's own
        ledger via a snapshot window.
        """
        if not self._pending:
            return
        pending = list(self._pending.items())
        self._pending.clear()
        snap = self.env.snapshot()
        try:
            for cell_id, scheme in pending:
                self._issue_cell(cell_id, scheme)
        finally:
            light, heavy = self.env.delta(snap)
            self.light_total += light
            self.heavy_total += heavy

    def _issue_cell(self, cell_id: int, scheme: StorageScheme) -> None:
        # Only a scheme with a per-cell segment has a flip to read
        # ahead (the horizontal scheme's flips are free).
        if not isinstance(scheme, SegmentScheme):
            return
        index_file = scheme.index_file
        pages = scheme.prefetch_pages(cell_id)
        if index_file is None or not pages:
            return
        self.planned_cells += 1
        for page_id in pages:
            if self.pool.prefetch(index_file, page_id,
                                  reader=_prefetch_reader):
                self.index_pages_issued += 1
        # Chase the segment into V-page prefetches when every index page
        # is resident and pointers are page ids (raw codec only: packed
        # streams address records, not pages).
        if scheme.codec.packed:
            return
        chunks = []
        for page_id in pages:
            data = self.pool.peek(index_file, page_id)
            if data is None:
                return
            chunks.append(data)
        pointers = scheme.decode_cell_pointers(cell_id, b"".join(chunks))
        issued = 0
        for pointer in pointers:
            if issued >= MAX_VPAGES:
                break
            if self.pool.prefetch(scheme.vpage_file, pointer,
                                  reader=_prefetch_reader):
                self.vpages_issued += 1
                issued += 1

    # -- reporting ------------------------------------------------------------

    def report(self) -> Dict[str, object]:
        pool_stats = self.pool.prefetch_stats()
        issued = pool_stats["issued"]
        return {
            "planned_cells": self.planned_cells,
            "index_pages_issued": self.index_pages_issued,
            "vpages_issued": self.vpages_issued,
            "predictions": self.predictions,
            "correct_predictions": self.correct_predictions,
            "transitions_recorded": self.model.transitions,
            "pool": pool_stats,
            "useful_ratio": (pool_stats["useful"] / issued
                             if issued else 0.0),
        }

    def __repr__(self) -> str:
        return (f"ServingPrefetcher(planned={self.planned_cells}, "
                f"issued={self.index_pages_issued + self.vpages_issued})")
