"""Seeded input generators for the four benchmark workloads.

Everything here is a pure function of ``--seed`` and builds *inputs*
from the program's public types only — ``Session``/``Waypoint`` paths,
``street_viewpoints`` positions, a page-id/payload transaction stream.
The program under test never sees the seed, only what is generated
here, and the digest of the generated inputs is printed with the
results: same seed, same digest.

The scene (the dataset) is *not* seeded: it is the fixed city below, so
a later "speed-up" cannot be a silent change of estimator resolution or
scene size.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.hdov_tree import HDoVConfig
from repro.geometry.aabb import AABB
from repro.scene.city import CityParams
from repro.walkthrough.session import (Session, Waypoint, street_lines,
                                       street_viewpoints)

# -- the fixed dataset -------------------------------------------------------


@dataclass(frozen=True)
class SceneSpec:
    """City, cell grid and estimator settings of one benchmark profile."""

    city: CityParams
    cell_size: float
    hdov: HDoVConfig


#: The reported profile.  12x12 and not larger because the horizontal
#: scheme alone is cells x nodes pages (~226 MB here) and peak RSS is a
#: tracked metric; DoV resolution and samples are pinned so that no
#: later change can buy speed by sampling less.
FULL_SCENE = SceneSpec(
    city=CityParams(blocks_x=12, blocks_y=12, seed=7, bunnies_per_block=6,
                    building_fraction=0.4, min_height=20, max_height=90),
    cell_size=60.0,
    hdov=HDoVConfig(dov_resolution=16, samples_per_cell=1),
)

#: ``--smoke`` only (tests): same shape, 4x4 blocks.  Never reported.
SMOKE_SCENE = replace(FULL_SCENE, city=replace(FULL_SCENE.city,
                                               blocks_x=4, blocks_y=4))

#: eta of the served walks: the program's ``repro serve`` default.
WALK_ETA = 0.001
#: The paper's Figure 7/8 sweep, low / mid / high threshold.
COLD_ETAS = (0.0, 0.001, 0.008)
#: Metres advanced per frame: with 60 m cells a walk enters a new cell
#: about every fourth frame, so three frames in four are the cheap
#: non-query frames a real walkthrough is mostly made of.
WALK_STEP_M = 15.0

# -- street walks -------------------------------------------------------------

_HEADINGS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def street_walk(name: str, xs: Sequence[float], ys: Sequence[float], *,
                start: Tuple[int, int], rng: np.random.Generator,
                frames: int, pitch: float,
                eye_height: float = 1.7) -> Session:
    """A random walk along the street lines ``xs`` x ``ys``.

    Starts at intersection ``start``, moves ``WALK_STEP_M`` per frame
    and picks a new heading at every intersection (never a U-turn unless
    it is a dead end).  Confining ``xs``/``ys`` to a few lines confines
    the walk to that district.
    """
    if len(xs) * len(ys) < 2:
        raise ValueError("a street walk needs at least two intersections")
    steps_per_segment = int(round(pitch / WALK_STEP_M))
    ix, iy = start
    heading = (0, 0)
    offset = 0
    waypoints: List[Waypoint] = []
    for _ in range(frames):
        if offset == 0:
            options = [h for h in _HEADINGS
                       if 0 <= ix + h[0] < len(xs) and 0 <= iy + h[1] < len(ys)]
            forward = [h for h in options
                       if h != (-heading[0], -heading[1])]
            choices = forward or options
            heading = choices[int(rng.integers(len(choices)))]
        x = xs[ix] + heading[0] * offset * WALK_STEP_M
        y = ys[iy] + heading[1] * offset * WALK_STEP_M
        waypoints.append(Waypoint(
            (float(x), float(y), eye_height),
            (float(heading[0]), float(heading[1]), 0.0)))
        offset += 1
        if offset == steps_per_segment:
            ix += heading[0]
            iy += heading[1]
            offset = 0
    return Session(name, tuple(waypoints))


def _centre(lines: Sequence[float], count: int) -> List[float]:
    """The ``count`` middle entries of ``lines`` (all if fewer)."""
    start = max((len(lines) - count) // 2, 0)
    return list(lines[start:start + count])


def _walks(prefix: str, xs: Sequence[float], ys: Sequence[float], *,
           rng: np.random.Generator, sessions: int, frames: int,
           pitch: float) -> List[Session]:
    """``sessions`` walks whose starts are spread evenly over the
    intersections; the seed drives only the turns, which keeps the
    region covered — and so the page working set — alike across seeds."""
    total = len(xs) * len(ys)
    walks = []
    for i in range(sessions):
        start = divmod((i * total) // sessions, len(ys))
        walks.append(street_walk(f"{prefix}-{i}", xs, ys, start=start,
                                 rng=rng, frames=frames, pitch=pitch))
    return walks


def district_walks(bounds: AABB, pitch: float, *, seed: int, sessions: int,
                   frames: int, district: int = 4) -> List[Session]:
    """``walk_hot_pool``: walks confined to the central ``district`` x
    ``district`` intersections, so the page working set fits the pool."""
    rng = np.random.default_rng(seed)
    xs = _centre(street_lines(bounds, pitch, axis=0), district)
    ys = _centre(street_lines(bounds, pitch, axis=1), district)
    return _walks("district-walk", xs, ys, rng=rng, sessions=sessions,
                  frames=frames, pitch=pitch)


def city_walks(bounds: AABB, pitch: float, *, seed: int, sessions: int,
               frames: int) -> List[Session]:
    """``walk_pool_pressure``: walks spread over every street of the
    city, so the page working set is far larger than the pool."""
    rng = np.random.default_rng(seed)
    xs = street_lines(bounds, pitch, axis=0)
    ys = street_lines(bounds, pitch, axis=1)
    return _walks("city-walk", xs, ys, rng=rng, sessions=sessions,
                  frames=frames, pitch=pitch)


# -- cold point queries ---------------------------------------------------------


def cold_viewpoints(bounds: AABB, pitch: float, *, seed: int,
                    count: int) -> List[np.ndarray]:
    """``point_query_cold``: independent street viewpoints — no temporal
    coherence, consecutive queries land in unrelated cells."""
    return street_viewpoints(bounds, pitch, count, seed=seed)


# -- journal transactions ---------------------------------------------------------


@dataclass(frozen=True)
class Transaction:
    """One unit of ``journal_write_mix``: page images to write, pages to
    read back, then commit."""

    writes: Tuple[Tuple[int, bytes], ...]
    reads: Tuple[int, ...]


def page_payload(tag: int, page_size: int) -> bytes:
    """A mod-251 byte ramp starting at ``tag`` — consecutive byte values,
    as in ``repro.obs.crash``, so a payload can never contain the WAL's
    ``RWAL`` resync marker and recovery cannot false-positive on it."""
    start = tag % 251
    ramp = bytes((start + i) % 251 for i in range(251))
    repeats = page_size // 251 + 2
    return (ramp * repeats)[:page_size]


def journal_transactions(*, seed: int, pages: int, page_size: int,
                         transactions: int, writes_per_txn: int = 8,
                         reads_per_txn: int = 2,
                         pareto_shape: float = 1.2) -> List[Transaction]:
    """``journal_write_mix``: Pareto-skewed page ids — a hot head that is
    rewritten within one checkpoint interval (so the overlay absorbs
    it) and a long tail that is not (so checkpoints stay large)."""
    rng = np.random.default_rng(seed)
    per_txn = writes_per_txn + reads_per_txn
    # Pareto ranks folded onto the page range, then scattered by a fixed
    # odd multiplier so hot pages are not physically adjacent.
    ranks = rng.pareto(pareto_shape, size=transactions * per_txn)
    page_ids = ((ranks * pages / 16.0).astype(np.int64) * 769) % pages
    tags = rng.integers(0, 251, size=transactions * writes_per_txn)
    out: List[Transaction] = []
    for t in range(transactions):
        ids = page_ids[t * per_txn:(t + 1) * per_txn]
        writes = tuple(
            (int(ids[w]),
             page_payload(int(tags[t * writes_per_txn + w]), page_size))
            for w in range(writes_per_txn))
        reads = tuple(int(p) for p in ids[writes_per_txn:])
        out.append(Transaction(writes, reads))
    return out


# -- digests ---------------------------------------------------------------------


def _digest(chunks: Sequence[bytes]) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def sessions_digest(sessions: Sequence[Session]) -> str:
    return _digest([struct.pack("<3d", *w.position)
                    for s in sessions for w in s.waypoints])


def viewpoints_digest(points: Sequence[np.ndarray]) -> str:
    return _digest([np.asarray(p, dtype=np.float64).tobytes()
                    for p in points])


def transactions_digest(transactions: Sequence[Transaction]) -> str:
    chunks: List[bytes] = []
    for txn in transactions:
        for page_id, payload in txn.writes:
            chunks.append(struct.pack("<IB", page_id, payload[0]))
        chunks.append(struct.pack(f"<{len(txn.reads)}I", *txn.reads))
    return _digest(chunks)


#: Why each workload exists (also in BENCHMARK.json and the README).
REASONS: Dict[str, str] = {
    "walk_hot_pool":
        "Working set fits the pool (hit rate ~0.99, 0 evictions): time is "
        "search + node/V-page decode, where decode-once work must show "
        "and pool/pageio changes must not.",
    "walk_pool_pressure":
        "Pool far smaller than the working set (hit rate < 0.5): the miss "
        "path, eviction, pageio and the 2-worker executor hand-off do "
        "the work; a decoded-frame cache gains little here.",
    "point_query_cold":
        "Paper Fig. 7/8: unpooled point queries with no coherence across "
        "five scheme/codec variants; every op flips cell, so index "
        "decode, packed codec and model fetch dominate.",
    "journal_write_mix":
        "Write side of the same pagedfile/pageio layers plus WAL, fsync, "
        "checkpoint and recovery, whose cost was never measured; "
        "checkpoints land in p99, not p50.",
}
