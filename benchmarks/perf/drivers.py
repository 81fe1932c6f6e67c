"""The four workload drivers: set-up, one round, stored bytes.

A driver builds its program state once (timed: ``setup_s``) and then
runs *rounds*.  Every round replays the same generated inputs against
fresh run-time state — new pool, sessions, searchers or file — so the
count metrics of a round are a pure function of the inputs and must be
identical from round to round, while the timings of the rounds are
independent samples of the same work.

Layers are driven only through their public entry points; nothing in
here reaches into the program beyond what ``repro serve`` /
``repro run`` themselves call.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import oracle
import workloads
from calibration import Calibrator, PhaseTimer
from report import VARIANTS, variant_metric
from repro.baselines.naive import NaiveCellList
from repro.core.hdov_tree import HDoVEnvironment, build_environment
from repro.core.search import HDoVSearch, SearchResult
from repro.errors import ReproError
from repro.scene.city import generate_city
from repro.serving.scheduler import SessionScheduler
from repro.serving.service import session_env
from repro.serving.session import ServingSession
from repro.storage import pageio
from repro.storage.buffer import BufferPool
from repro.storage.disk import IOStats
from repro.storage.journal import HEADER as WAL_HEADER
from repro.storage.journal import journal_path
from repro.storage.pagedfile import PagedFile
from repro.storage.vpagecodec import PackedDeltaVPageCodec
from repro.visibility.cells import CellGrid
from repro.visibility.dov import VisibilityTable
from repro.visibility.precompute import precompute_visibility
from repro.walkthrough.session import Session


@dataclass
class RoundResult:
    """What one round did, how long it took, and whether it was right."""

    ops: int
    #: Raw wall time of the timed loop, calibration ticks included.
    wall_s: float
    #: The round's interleaved calibration (see ``calibration.py``).
    calibration: Calibrator
    #: Raw wall latency of each op, in issue order.
    op_ns: List[int]
    #: Count metrics: must be identical in every round of a run.
    counts: Dict[str, float]
    verdict: oracle.Verdict
    #: Raw times taken inside the round that are not per-op latencies.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Per-op labels, for per-variant latency splits.
    op_labels: Optional[List[str]] = None
    #: ``perf_counter_ns`` stamps around what a traced round attributes
    #: to layers: the timed loop, plus the journal's crash-and-recover
    #: tail.  Preparation and answer checking fall outside.
    region_ns: Tuple[int, int] = (0, 0)

    @property
    def speed_factor(self) -> float:
        return self.calibration.speed_factor

    @property
    def work_s(self) -> float:
        """Wall time of the timed loop at reference speed: raw wall less
        the ticks, over the round's speed factor."""
        return (self.wall_s - self.calibration.seconds) / self.speed_factor


@dataclass
class Profile:
    """Sizes of one run: the reported profile or the ``--smoke`` one."""

    scene: workloads.SceneSpec
    hot_sessions: int = 8
    hot_frames: int = 500
    hot_pool_pages: int = 4096
    pressure_sessions: int = 32
    pressure_frames: int = 125
    pressure_pool_pages: int = 128
    cold_viewpoints: int = 70
    journal_pages: int = 2048
    journal_transactions: int = 3000
    #: Set-ups of the journal workload per run (median reported): one
    #: set-up is tens of milliseconds, too short to report singly.
    journal_setups: int = 5


FULL = Profile(scene=workloads.FULL_SCENE)
SMOKE = Profile(scene=workloads.SMOKE_SCENE, hot_frames=60,
                pressure_sessions=8, pressure_frames=60,
                pressure_pool_pages=32, cold_viewpoints=8,
                journal_pages=256, journal_transactions=200,
                journal_setups=2)

JOURNAL_PAGE_SIZE = 4096
#: Flush policy of ``journal_write_mix``, fixed: one ``commit()`` (one
#: real fsync of the WAL) per transaction, one ``checkpoint()`` (data
#: file fsync + WAL reset) every this many transactions.
CHECKPOINT_EVERY = 64
#: Writes issued after the last commit and never acknowledged: the
#: crash must lose them and nothing else.
UNACKNOWLEDGED_TAIL = 5


# -- shared scene set-up --------------------------------------------------------


@dataclass
class BuiltScene:
    scene: object
    grid: CellGrid
    table: VisibilityTable


def build_scene(spec: workloads.SceneSpec, timer: PhaseTimer) -> BuiltScene:
    """City and per-cell visibility, timed directly (no wrappers).  The
    table is computed here, once per process, and never cached on disk:
    set-up is measured, not hidden."""
    scene = generate_city(spec.city)
    timer.done("scene.city.city_s")
    grid = CellGrid.covering(scene.bounds(), spec.cell_size)
    table = precompute_visibility(
        scene, grid, resolution=spec.hdov.dov_resolution,
        samples_per_cell=spec.hdov.samples_per_cell)
    timer.done("visibility.precompute.precompute_s")
    return BuiltScene(scene, grid, table)


@dataclass
class SetupResult:
    """Set-up time at reference speed, raw, and by phase (at reference
    speed, under the per-layer metric names)."""

    seconds: float
    raw_seconds: float
    phases: Dict[str, float]


def _setup_result(timer: PhaseTimer, num_cells: int = 0) -> SetupResult:
    phases = dict(timer.ref_s)
    precompute = phases.get("visibility.precompute.precompute_s")
    if precompute:
        phases["visibility.precompute.cells_per_s"] = num_cells / precompute
    return SetupResult(sum(timer.ref_s.values()), sum(timer.raw_s.values()),
                       phases)


def _reset_environment(env: HDoVEnvironment) -> None:
    """Back to the just-built condition: empty ledgers, cold heads, no
    current cell — so every round charges identical I/O."""
    env.reset_stats()
    for scheme in env.schemes.values():
        scheme.reset_runtime_state()
    env.node_store.pfile.reset_head()
    env.object_store.pfile.reset_head()


def _environment_stored_bytes(env: HDoVEnvironment) -> int:
    """Tree + V-pages + index segments + model blobs (Table 2)."""
    return (env.node_store.pfile.byte_size
            + env.object_store.pfile.byte_size
            + sum(s.storage_breakdown().total_bytes
                  for s in env.schemes.values()))


def _io_counts(stats: Sequence[IOStats], ops: int) -> Dict[str, float]:
    """End-to-end I/O counts plus the pagedfile layer's extras."""
    total = {name: sum(getattr(s, name) for s in stats)
             for name in ("reads", "writes", "seeks", "back_seeks",
                          "forward_seeks", "sequential_reads", "bytes_read",
                          "bytes_written")}
    counts = {f"storage.pagedfile.{name}": float(total[name])
              for name in ("seeks", "back_seeks", "forward_seeks",
                           "sequential_reads", "bytes_read",
                           "bytes_written")}
    counts["sim_ms_per_op"] = sum(s.simulated_ms for s in stats) / ops
    counts["io_pages_per_op"] = (total["reads"] + total["writes"]) / ops
    return counts


def _search_counts(results: Sequence[Optional[SearchResult]]
                   ) -> Dict[str, float]:
    done = [r for r in results if r is not None]
    return {f"core.search.{name}": float(sum(getattr(r, name)
                                             for r in done))
            for name in ("nodes_read", "vpages_read", "pruned",
                         "terminated", "recursed")}


# -- the walks --------------------------------------------------------------------


class TimedSession(ServingSession):
    """A ``ServingSession`` that times ``step()`` and keeps the answers.

    Only frames that ran a visibility query are ops; the cheap frames in
    between are stepped all the same and their time stays in the round's
    wall total.  Every frame is preceded by one calibration tick.
    """

    def __init__(self, calibration: Calibrator, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calibration = calibration
        self.op_ns: List[int] = []
        self.answers: List[SearchResult] = []

    def step(self, *, shed_load: bool = False
             ) -> Optional[Callable[[], float]]:
        self.calibration.tick()
        queries = self.queries
        start = time.perf_counter_ns()
        thunk = super().step(shed_load=shed_load)
        end = time.perf_counter_ns()
        if self.queries != queries:
            self.op_ns.append(end - start)
            assert self._last_result is not None
            self.answers.append(self._last_result)
        return thunk


class Driver:
    """What ``run.py`` needs of a workload.  ``setup()`` builds the
    program state and the inputs; ``run_round()`` replays the inputs
    against fresh run-time state."""

    def setup(self) -> SetupResult:
        raise NotImplementedError

    def run_round(self) -> RoundResult:
        raise NotImplementedError

    def input_digest(self) -> str:
        raise NotImplementedError

    def stored_bytes(self) -> int:
        raise NotImplementedError

    def encode_seconds(self) -> float:
        """Set-up side of the packed V-page codec (0: not on the path)."""
        return 0.0

    def close(self) -> None:
        """Remove whatever the rounds left on disk."""
        return None


class WalkDriver(Driver):
    """``walk_hot_pool`` / ``walk_pool_pressure``: N served street walks
    over one shared buffer pool, through the round scheduler."""

    def __init__(self, name: str, profile: Profile, seed: int) -> None:
        self.profile = profile
        self.seed = seed
        self.hot = name == "walk_hot_pool"
        self.pool_pages = (profile.hot_pool_pages if self.hot
                           else profile.pressure_pool_pages)
        #: Scoring threads: the hot workload keeps the inline path, the
        #: pressure workload pays the executor hand-off on both cores.
        self.workers = 1 if self.hot else 2

    def setup(self) -> SetupResult:
        spec = self.profile.scene
        timer = PhaseTimer()
        built = build_scene(spec, timer)
        self.env = build_environment(built.scene, built.grid, spec.hdov,
                                     visibility=built.table)
        timer.done("core.hdov_tree.build_s")
        # Inputs come from the seed and the scene's public geometry.
        bounds = built.scene.bounds()
        if self.hot:
            self.paths: List[Session] = workloads.district_walks(
                bounds, spec.city.pitch, seed=self.seed,
                sessions=self.profile.hot_sessions,
                frames=self.profile.hot_frames)
        else:
            self.paths = workloads.city_walks(
                bounds, spec.city.pitch, seed=self.seed,
                sessions=self.profile.pressure_sessions,
                frames=self.profile.pressure_frames)
        self.expected_ops = sum(self._cell_changes(p) for p in self.paths)
        self._reference: Dict[str, str] = {}
        return _setup_result(timer, built.grid.num_cells)

    def _cell_changes(self, path: Session) -> int:
        cells = [self.env.grid.cell_of_point(w.position_array())
                 for w in path.waypoints]
        return 1 + sum(1 for a, b in zip(cells, cells[1:]) if a != b)

    def input_digest(self) -> str:
        return workloads.sessions_digest(self.paths)

    def stored_bytes(self) -> int:
        return _environment_stored_bytes(self.env)

    def run_round(self) -> RoundResult:
        env = self.env
        _reset_environment(env)
        pool = BufferPool(self.pool_pages, name="bench")
        calibration = Calibrator()
        sessions = [
            TimedSession(calibration, i, path, session_env(env, pool),
                         eta=workloads.WALK_ETA, pool=pool,
                         evaluate_fidelity=True)
            for i, path in enumerate(self.paths)]
        scheduler = SessionScheduler(sessions, workers=self.workers)
        verdict = oracle.Verdict()
        gc.collect()
        start = time.perf_counter_ns()
        try:
            scheduler.run()
        except ReproError as exc:
            verdict.fail(0, f"scheduler aborted: {type(exc).__name__}: "
                            f"{exc}")
        end = time.perf_counter_ns()
        wall = (end - start) / 1e9

        answers = [r for s in sessions for r in s.answers]
        served = len(answers)
        if served != self.expected_ops:
            verdict.fail(abs(self.expected_ops - served),
                         f"served {served} queries, inputs hold "
                         f"{self.expected_ops}")
        verdict.merge(oracle.check_walk_ledgers(env, sessions, pool,
                                                served))

        ops = max(served, 1)
        frames = scheduler.frames_served
        counts = _io_counts([env.light_stats, env.heavy_stats], ops)
        counts.update(_search_counts(answers))
        fetches = sum(s.delta.fetches for s in sessions)
        skipped = sum(s.delta.skipped for s in sessions)
        counts.update({
            "serving.scheduler.rounds": float(scheduler.rounds),
            "serving.scheduler.frames": float(frames),
            "serving.session.queries": float(served),
            "core.delta.fetches": float(fetches),
            "core.delta.skipped": float(skipped),
            "core.delta.skip_ratio":
                skipped / (fetches + skipped) if fetches + skipped else 0.0,
            "core.schemes.flips": float(sum(
                s.delta.search.scheme.flips for s in sessions)),
            "storage.buffer.hits": float(pool.hits),
            "storage.buffer.misses": float(pool.misses),
            "storage.buffer.coalesced": float(pool.coalesced),
            "storage.buffer.evictions": float(pool.evictions),
            "storage.buffer.hit_rate": pool.hit_rate,
            "storage.objectstore.heavy_bytes_per_op":
                env.heavy_stats.bytes_read / ops,
        })
        # Last, because the reference queries charge the same ledgers.
        verdict.merge(self._check_selections(answers))
        return RoundResult(
            ops=ops, wall_s=wall, calibration=calibration,
            op_ns=[ns for s in sessions for ns in s.op_ns],
            counts=counts, verdict=verdict, region_ns=(start, end))

    def _check_selections(self, answers: Sequence[SearchResult]
                          ) -> oracle.Verdict:
        """Pooled serving against a plain unpooled search on the parent
        environment: another code path (no pool, no session view, no
        delta layer) that must select exactly the same."""
        def key(result: SearchResult) -> str:
            return f"cell {result.cell_id} eta {result.eta}"

        search = HDoVSearch(self.env, fetch_models=False)
        for result in answers:
            if key(result) not in self._reference:
                self._reference[key(result)] = oracle.selection_digest(
                    search.query_cell(result.cell_id, result.eta))
        return oracle.check_against_reference(
            ((key(r), oracle.selection_digest(r)) for r in answers),
            self._reference)


# -- cold point queries ----------------------------------------------------------------


class ColdQueryDriver(Driver):
    """``point_query_cold``: unpooled ``HDoVSearch.query_point`` at
    independent viewpoints, over five scheme/codec variants."""

    def __init__(self, profile: Profile, seed: int) -> None:
        self.profile = profile
        self.seed = seed

    def setup(self) -> SetupResult:
        spec = self.profile.scene
        timer = PhaseTimer()
        built = build_scene(spec, timer)
        # Two environments share the one visibility table: raw V-pages
        # under all three schemes, packed V-pages under the two schemes
        # that support them.
        self.raw_env = build_environment(
            built.scene, built.grid,
            replace(spec.hdov, schemes=("horizontal", "vertical",
                                        "indexed-vertical")),
            visibility=built.table)
        self.packed_env = build_environment(
            built.scene, built.grid,
            replace(spec.hdov, schemes=("vertical", "indexed-vertical"),
                    compress_vpages=True),
            visibility=built.table)
        timer.done("core.hdov_tree.build_s")
        self.envs = {"raw": self.raw_env, "packed": self.packed_env}
        self.points = workloads.cold_viewpoints(
            built.scene.bounds(), spec.city.pitch, seed=self.seed,
            count=self.profile.cold_viewpoints)
        # eta-major, so that a variant's consecutive queries are at
        # different viewpoints and (almost) every query flips the cell.
        self.queries = [(eta, index) for eta in workloads.COLD_ETAS
                        for index in range(len(self.points))]
        self._naive: Optional[Dict[int, List[int]]] = None
        return _setup_result(timer, built.grid.num_cells)

    def input_digest(self) -> str:
        return workloads.viewpoints_digest(self.points)

    def stored_bytes(self) -> int:
        return sum(_environment_stored_bytes(env)
                   for env in self.envs.values())

    def _naive_ids(self) -> Dict[int, List[int]]:
        """Naive (cell, list) answer set per viewpoint (built once, after
        timing; its own list file never enters the measured ledgers)."""
        if self._naive is None:
            naive = NaiveCellList(self.raw_env, fetch_models=False)
            self._naive = {index: naive.query_point(point).object_ids()
                           for index, point in enumerate(self.points)}
        return self._naive

    def run_round(self) -> RoundResult:
        for env in self.envs.values():
            _reset_environment(env)
        searchers = [HDoVSearch(self.envs[codec], scheme, fetch_models=True)
                     for scheme, codec in VARIANTS]
        labels = [variant_metric(scheme, codec) for scheme, codec in VARIANTS]
        flips_before = sum(s.scheme.flips for s in searchers)
        calibration = Calibrator()
        clock = time.perf_counter_ns
        op_ns: List[int] = []
        answers: List[Optional[SearchResult]] = []
        gc.collect()
        start = clock()
        for eta, index in self.queries:
            point = self.points[index]
            for searcher in searchers:
                calibration.tick()
                t0 = clock()
                try:
                    answer: Optional[SearchResult] = searcher.query_point(
                        point, eta)
                except ReproError:
                    answer = None
                op_ns.append(clock() - t0)
                answers.append(answer)
        end = clock()
        wall = (end - start) / 1e9

        # Counts first: the oracle below issues queries of its own.
        ops = len(answers)
        stats = [s for env in self.envs.values()
                 for s in (env.light_stats, env.heavy_stats)]
        counts = _io_counts(stats, ops)
        counts.update(_search_counts(answers))
        counts["core.schemes.flips"] = float(sum(
            s.scheme.flips for s in searchers) - flips_before)
        counts["storage.objectstore.heavy_bytes_per_op"] = sum(
            env.heavy_stats.bytes_read for env in self.envs.values()) / ops
        codec = self.packed_env.scheme("indexed-vertical").codec
        counts["storage.vpagecodec.compression_ratio"] = float(
            codec.compression_stats()["ratio"])
        verdict = oracle.Verdict()
        width = len(searchers)
        for q, (eta, index) in enumerate(self.queries):
            group = answers[q * width:(q + 1) * width]
            what = f"viewpoint {index} eta {eta}"
            verdict.merge(oracle.check_variants_agree(
                [oracle.selection_digest(r) for r in group], labels, what))
            if eta == 0.0:
                naive_ids = self._naive_ids()[index]
                for result in group:
                    verdict.merge(oracle.check_naive_equivalence(
                        result, naive_ids, what))

        return RoundResult(ops=ops, wall_s=wall, calibration=calibration,
                           op_ns=op_ns, counts=counts, verdict=verdict,
                           op_labels=labels * len(self.queries),
                           region_ns=(start, end))

    def encode_seconds(self) -> float:
        """Encode side of the packed codec, timed from outside: every
        cell's V-pages appended to a scratch in-memory file through the
        codec's public writer interface."""
        env = self.packed_env
        grid = env.grid
        codec = PackedDeltaVPageCodec(
            env.config.page_size,
            {cid: grid.neighbors(cid) for cid in grid.cell_ids()},
            scheme="indexed-vertical")
        scratch = PagedFile("encode-scratch", page_size=env.config.page_size)
        start = time.perf_counter()
        for cell in env.cell_vpages:
            codec.begin_cell(cell.cell_id)
            for offset in cell.visible_offsets_dfs():
                codec.append(scratch, cell.cell_id, offset,
                             cell.ventries(offset))
        codec.finish(scratch)
        return time.perf_counter() - start


# -- journaled writes -------------------------------------------------------------------


class JournalDriver(Driver):
    """``journal_write_mix``: transactions against one disk-backed,
    journaled ``PagedFile``; every round ends in a crash and a recovery
    that must lose nothing acknowledged."""

    def __init__(self, profile: Profile, seed: int, workdir: str) -> None:
        self.profile = profile
        self.seed = seed
        self.workdir = workdir
        self._serial = 0
        self._stored = 0

    def setup(self) -> SetupResult:
        profile = self.profile
        self.transactions = workloads.journal_transactions(
            seed=self.seed, pages=profile.journal_pages,
            page_size=JOURNAL_PAGE_SIZE,
            transactions=profile.journal_transactions)
        # Load-phase image of every page, before any transaction.
        self.initial = [workloads.page_payload(p, JOURNAL_PAGE_SIZE)
                        for p in range(profile.journal_pages)]
        tail_ids = [w[0] for txn in self.transactions[:UNACKNOWLEDGED_TAIL]
                    for w in txn.writes[:1]]
        self.tail = [(pid, workloads.page_payload(pid + 97,
                                                  JOURNAL_PAGE_SIZE))
                     for pid in tail_ids]
        os.makedirs(self.workdir, exist_ok=True)
        # Each set-up is a few tens of milliseconds — too short to report
        # singly — so several are run and the median is reported.
        timers = []
        for _ in range(profile.journal_setups):
            timer = PhaseTimer()
            pfile, _stats, path = self._create_loaded_file()
            timer.done("load")
            timers.append(timer)
            pfile.close()
            self._remove(path)
        timers.sort(key=lambda t: t.ref_s["load"])
        median = timers[len(timers) // 2]
        return SetupResult(median.ref_s["load"], median.raw_s["load"], {})

    def _create_loaded_file(self) -> Tuple[PagedFile, IOStats, str]:
        """File creation, allocation and the load phase: every page gets
        its initial image, committed and checkpointed into the data
        file."""
        self._serial += 1
        path = os.path.join(self.workdir, f"journal-{self._serial}.pages")
        stats = IOStats()
        pfile = PagedFile("journal-bench", page_size=JOURNAL_PAGE_SIZE,
                          stats=stats, path=path, journal=True)
        pfile.allocate_many(self.profile.journal_pages)
        for page_id, image in enumerate(self.initial):
            pageio.write_page(pfile, page_id, image, component="bench")
        pfile.checkpoint()
        return pfile, stats, path

    @staticmethod
    def _remove(path: str) -> None:
        for name in (path, journal_path(path)):
            if os.path.exists(name):
                os.remove(name)

    def input_digest(self) -> str:
        return workloads.transactions_digest(self.transactions)

    def stored_bytes(self) -> int:
        return self._stored

    def run_round(self) -> RoundResult:
        pfile, stats, path = self._create_loaded_file()
        stats.reset()
        pfile.reset_head()
        journal = pfile.journal
        assert journal is not None
        shadow = dict(enumerate(self.initial))
        verdict = oracle.Verdict()
        calibration = Calibrator()
        clock = time.perf_counter_ns
        op_ns: List[int] = []
        wal_bytes = 0
        gc.collect()
        start = clock()
        for number, txn in enumerate(self.transactions, start=1):
            calibration.tick()
            t0 = clock()
            try:
                for page_id, payload in txn.writes:
                    pageio.write_page(pfile, page_id, payload,
                                      component="bench")
                    shadow[page_id] = payload
                for page_id in txn.reads:
                    if pageio.read_page(pfile, page_id,
                                        component="bench") != shadow[page_id]:
                        verdict.fail(1, f"txn {number}: page {page_id} "
                                        f"read back a stale image")
                pfile.commit()
                if number % CHECKPOINT_EVERY == 0:
                    wal_bytes += journal.written_length - WAL_HEADER.size
                    pfile.checkpoint()
            except ReproError as exc:
                verdict.fail(1, f"txn {number}: {type(exc).__name__}: {exc}")
            op_ns.append(clock() - t0)
        wall = (clock() - start) / 1e9
        wal_bytes += journal.written_length - WAL_HEADER.size

        # Round tail: writes that are never acknowledged, a power loss,
        # and a reopen that must recover exactly the acknowledged state.
        acknowledged = dict(shadow)
        for page_id, payload in self.tail:
            pageio.write_page(pfile, page_id, payload, component="bench")
        self._stored = (os.path.getsize(path)
                        + os.path.getsize(journal_path(path)))
        pfile.crash()
        t0 = time.perf_counter()
        reopened = PagedFile("journal-bench", page_size=JOURNAL_PAGE_SIZE,
                             stats=stats, path=path, journal=True)
        recover_s = time.perf_counter() - t0
        end = clock()
        recovery = reopened.last_recovery
        ops = len(self.transactions)
        counts = _io_counts([stats], ops)
        counts["storage.recovery.pages_replayed"] = float(
            recovery.pages_replayed if recovery is not None else 0)
        user_bytes = sum(len(p) for txn in self.transactions
                         for _pid, p in txn.writes)
        counts["storage.journal.wal_bytes_per_user_byte"] = (
            wal_bytes / user_bytes)
        verdict.merge(oracle.check_durability(reopened.read_page,
                                              acknowledged))
        reopened.close()
        self._remove(path)
        return RoundResult(
            ops=ops, wall_s=wall, calibration=calibration, op_ns=op_ns,
            counts=counts, verdict=verdict,
            timings={"storage.recovery.recover_ms": recover_s * 1e3},
            region_ns=(start, end))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make_driver(workload: str, profile: Profile, seed: int,
                workdir: str) -> Driver:
    if workload in ("walk_hot_pool", "walk_pool_pressure"):
        return WalkDriver(workload, profile, seed)
    if workload == "point_query_cold":
        return ColdQueryDriver(profile, seed)
    if workload == "journal_write_mix":
        return JournalDriver(profile, seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
