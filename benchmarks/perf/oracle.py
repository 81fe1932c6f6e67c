"""Correctness checks behind ``ok_ops_share`` / ``failed``.

The oracle is the paper itself plus the program's own ledgers:

* the same (viewpoint, eta) must select the *same* objects, internal
  LoDs, blend fractions and polygons under every storage scheme and
  V-page codec (five variants on ``point_query_cold``; pooled serving
  versus a plain unpooled search on the walks);
* at ``eta = 0`` the HDoV answer set equals the naive (cell, list)
  answer set;
* per-session I/O and pool attribution sums exactly to the shared
  environment / pool ledgers;
* after ``crash()`` + reopen every page equals the image of its last
  *acknowledged* commit;
* count metrics are identical in every round of a run.

Every check returns the number of *operations* it fails plus notes, so
the harness can report failures against the number attempted.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.hdov_tree import HDoVEnvironment
from repro.core.search import SearchResult
from repro.serving.session import ServingSession
from repro.storage.buffer import BufferPool
from repro.storage.disk import IOStats

#: Relative tolerance for simulated-ms sums: per-session ms are
#: telescoping float differences of the shared clock (as in
#: ``repro.serving.service``); integer counts must balance exactly.
MS_RTOL = 1e-9


@dataclass
class Verdict:
    """Outcome of one or more checks."""

    failed_ops: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, ops: int, note: str) -> None:
        self.failed_ops += ops
        if len(self.notes) < 20:
            self.notes.append(note)

    def merge(self, other: "Verdict") -> None:
        self.failed_ops += other.failed_ops
        self.notes.extend(other.notes[:20 - len(self.notes)])

    @property
    def ok(self) -> bool:
        return self.failed_ops == 0


# -- selections ---------------------------------------------------------------


def selection_digest(result: Optional[SearchResult]) -> str:
    """Digest of *what was selected*: object and internal-LoD ids, their
    blend fractions and polygon counts — not the I/O it took."""
    if result is None:
        return "raised"
    h = hashlib.sha256()
    h.update(struct.pack("<Id", result.cell_id, result.eta))
    for obj in sorted(result.objects, key=lambda o: o.object_id):
        h.update(struct.pack("<IdI", obj.object_id, obj.fraction,
                             obj.polygons))
    h.update(b"|")
    for internal in sorted(result.internals, key=lambda i: i.node_offset):
        h.update(struct.pack("<IdI", internal.node_offset,
                             internal.fraction, internal.polygons))
    return h.hexdigest()[:16]


def check_variants_agree(digests: Sequence[str], labels: Sequence[str],
                         what: str) -> Verdict:
    """All variants of one query must produce one digest; the ops whose
    digest is not the majority one fail."""
    verdict = Verdict()
    majority, _count = Counter(digests).most_common(1)[0]
    for digest, label in zip(digests, labels):
        if digest != majority or digest == "raised":
            verdict.fail(1, f"{what}: {label} selected {digest}, "
                            f"others {majority}")
    return verdict


def check_against_reference(digests: Iterable[Tuple[str, str]],
                            reference: Mapping[str, str]) -> Verdict:
    """``(key, digest)`` pairs against a reference digest per key."""
    verdict = Verdict()
    for key, digest in digests:
        if digest != reference[key]:
            verdict.fail(1, f"{key}: selected {digest}, reference "
                            f"{reference[key]}")
    return verdict


def check_naive_equivalence(result: Optional[SearchResult],
                            naive_ids: Sequence[int], what: str) -> Verdict:
    """Paper, Section 5.3: at eta = 0 HDoV degenerates to the naive
    method — the covered object ids must be the naive answer set."""
    verdict = Verdict()
    covered = result.covered_object_ids() if result is not None else None
    if covered != sorted(naive_ids):
        verdict.fail(1, f"{what}: eta=0 answer set differs from naive")
    return verdict


# -- ledgers ------------------------------------------------------------------

_INT_FIELDS = ("reads", "writes", "seeks", "back_seeks", "forward_seeks",
               "sequential_reads", "bytes_read", "bytes_written")


def _sum_stats(parts: Iterable[IOStats]) -> IOStats:
    total = IOStats()
    for part in parts:
        for name in _INT_FIELDS:
            setattr(total, name, getattr(total, name) + getattr(part, name))
        total.simulated_ms += part.simulated_ms
    return total


def _ledger_mismatches(label: str, parts: IOStats,
                       ledger: IOStats) -> List[str]:
    notes = [f"{label}.{name}: sessions {getattr(parts, name)} != ledger "
             f"{getattr(ledger, name)}" for name in _INT_FIELDS
             if getattr(parts, name) != getattr(ledger, name)]
    scale = max(abs(parts.simulated_ms), abs(ledger.simulated_ms), 1.0)
    if abs(parts.simulated_ms - ledger.simulated_ms) > MS_RTOL * scale:
        notes.append(f"{label}.simulated_ms: sessions "
                     f"{parts.simulated_ms} != ledger {ledger.simulated_ms}")
    return notes


def check_walk_ledgers(env: HDoVEnvironment,
                       sessions: Sequence[ServingSession],
                       pool: BufferPool, ops: int) -> Verdict:
    """Per-session attribution must sum exactly to the shared ledgers;
    a round whose books do not balance fails as a whole."""
    notes = _ledger_mismatches(
        "light", _sum_stats(s.light_total for s in sessions),
        env.light_stats)
    notes += _ledger_mismatches(
        "heavy", _sum_stats(s.heavy_total for s in sessions),
        env.heavy_stats)
    for name in ("hits", "misses", "coalesced"):
        attributed = sum(getattr(s, f"pool_{name}") for s in sessions)
        if attributed != getattr(pool, name):
            notes.append(f"pool.{name}: sessions {attributed} != pool "
                         f"{getattr(pool, name)}")
    verdict = Verdict()
    if notes:
        verdict.fail(ops, "; ".join(notes))
    return verdict


# -- durability ----------------------------------------------------------------


def check_durability(read_page, acknowledged: Mapping[int, bytes]) -> Verdict:
    """After crash + recovery, ``read_page(page_id)`` must return the
    last acknowledged image of every page."""
    verdict = Verdict()
    for page_id, expected in acknowledged.items():
        if read_page(page_id) != expected:
            verdict.fail(1, f"page {page_id} lost its acknowledged image")
    return verdict


# -- repeatability ----------------------------------------------------------------


def check_counts_repeat(rounds: Sequence[Mapping[str, float]]) -> List[str]:
    """Count metrics must be identical in every round (same inputs,
    fresh state); returns the names that moved."""
    if not rounds:
        return []
    first = rounds[0]
    moved = []
    for name in first:
        values = {r.get(name) for r in rounds}
        if len(values) != 1:
            moved.append(f"{name}: {sorted(values, key=repr)}")
    return moved
