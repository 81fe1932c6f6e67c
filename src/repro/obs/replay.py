"""The replay kernel: build the world once, replay a path, balance books.

Every number of the paper's Section 5 comes out of one loop — build the
HDoV-tree for a dataset, replay a recorded session against it, read the
I/O counters.  ``repro profile``, ``chaos`` and ``serve`` (and the
experiment drivers' environment cache) are configurations of the
pieces here rather than copies of them:

* :func:`build_world` — scale → city → cell grid → environment, with
  the scheme / V-page codec overrides;
* :func:`session_path` — a scale's recorded session over that world;
* :func:`replay` — one cold VISUAL walkthrough of a path (the frame
  body itself lives in :class:`~repro.walkthrough.visual.VisualSystem`,
  which the serving sessions execute too);
* :func:`cold_queries` — a stream of point queries, each from cold,
  with the ledgers summed over the stream;
* :func:`injected_faults` — a fault plan installed beneath every file
  of the environment for exactly the duration of a run;
* :func:`unbalanced_fields` — the one definition of "do two ledgers
  agree": integer counters exactly, simulated ms within ``MS_RTOL``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Callable, Generic, Iterable, Iterator,
                    List, Mapping, Optional, Sequence, Tuple, TypeVar)

from repro.core.hdov_tree import HDoVEnvironment, build_environment
from repro.scene.city import generate_city
from repro.scene.objects import Scene
from repro.storage.disk import IOStats
from repro.storage.faults import FaultInjector, FaultPlan
from repro.visibility.cells import CellGrid
from repro.visibility.dov import VisibilityTable
from repro.walkthrough.session import Session, make_session
from repro.walkthrough.visual import VisualSystem, WalkthroughReport

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentScale

#: Relative tolerance for reconciling simulated-ms sums: per-file and
#: per-session ms are float partial sums (or telescoping differences)
#: of one clock, so they can drift from the total by rounding ulps.
#: Integer counters must match exactly.
MS_RTOL = 1e-9

Q = TypeVar("Q")
A = TypeVar("A")


def load_scale(name: str) -> "ExperimentScale":
    """The experiment scale called ``name``."""
    # Imported here: repro.experiments pulls in every experiment driver,
    # which the library layers must not depend on at import time.
    from repro.experiments.config import get_scale

    return get_scale(name)


def build_scene(experiment: "ExperimentScale") -> Tuple[Scene, CellGrid]:
    """The scale's procedural city and the cell grid covering it."""
    scene = generate_city(experiment.city)
    return scene, CellGrid.covering(scene.bounds(), experiment.cell_size)


def build_world(experiment: "ExperimentScale", *,
                schemes: Optional[Sequence[str]] = None,
                compress: bool = False,
                like: Optional[HDoVEnvironment] = None) -> HDoVEnvironment:
    """Build a fresh, uncached environment for a scale.

    ``schemes`` overrides which storage schemes are laid out and
    ``compress`` opts into the packed delta V-page codec.  ``like``
    reuses another world's scene, grid and visibility table, so that
    variants of one dataset (the raw and the packed build of the
    compression bench) pay the precompute once and provably share
    their ground truth.
    """
    if schemes is not None:
        experiment = experiment.with_schemes(schemes)
    hdov = experiment.hdov
    if compress:
        hdov = replace(hdov, compress_vpages=True)
    visibility: Optional[VisibilityTable] = None
    if like is None:
        scene, grid = build_scene(experiment)
    else:
        scene, grid, visibility = like.scene, like.grid, like.visibility
    return build_environment(scene, grid, hdov, visibility=visibility)


def session_path(experiment: "ExperimentScale", env: HDoVEnvironment,
                 pattern: int, frames: Optional[int] = None) -> Session:
    """Recorded session ``pattern`` over ``env``'s streets; ``frames``
    defaults to the scale's session length."""
    return make_session(
        pattern, env.scene.bounds(),
        num_frames=(frames if frames is not None
                    else experiment.session_frames))


def replay(experiment: "ExperimentScale", env: HDoVEnvironment,
           path: Session, *, eta: float, scheme: Optional[str] = None
           ) -> Tuple[VisualSystem, WalkthroughReport]:
    """Walk ``path`` through the VISUAL system under the scale's model
    cache budget; returns the system (search and ledger state) and the
    per-frame report.

    :meth:`VisualSystem.run` starts from cold
    (:meth:`HDoVEnvironment.reset_runtime_state`), so two replays of one
    path on one environment charge field-for-field equal I/O.
    """
    system = VisualSystem(
        env, eta=eta, scheme=scheme,
        cache_budget_bytes=experiment.visual_cache_budget_bytes)
    return system, system.run(path)


@dataclass
class ColdQueries(Generic[A]):
    """The answers of a query stream and its summed ledgers."""

    answers: List[A]
    light: IOStats
    heavy: IOStats

    def ms_per_query(self) -> float:
        return ((self.light.simulated_ms + self.heavy.simulated_ms)
                / len(self.answers))

    def ios_per_query(self) -> float:
        return ((self.light.total_ios + self.heavy.total_ios)
                / len(self.answers))


def cold_queries(env: HDoVEnvironment, queries: Iterable[Q],
                 answer: Callable[[Q], A]) -> ColdQueries[A]:
    """Answer each query from cold, as the paper's random-viewpoint
    stream does: every query pays its own flip and its own first
    access to each file, whatever ran before it."""
    answers: List[A] = []
    light, heavy = IOStats(), IOStats()
    for query in queries:
        env.reset_runtime_state()
        # Go on summing on the environment's ledgers: the totals are
        # then one running sum of the stream's charges, not a sum of
        # per-query subtotals that rounds differently.
        env.light_stats += light
        env.heavy_stats += heavy
        answers.append(answer(query))
        light, heavy = env.snapshot()
    return ColdQueries(answers, light, heavy)


@contextmanager
def injected_faults(env: HDoVEnvironment, plan: Optional[FaultPlan],
                    seed: int) -> Iterator[FaultInjector]:
    """Run the block with ``plan`` installed beneath every file of
    ``env``; yields the injector, whose injection counts stay readable
    after the block.  Without a plan nothing is installed and the
    yielded injector stays empty."""
    injector = FaultInjector(plan, seed=seed)
    try:
        if plan is not None:
            injector.install(*env.files())
        yield injector
    finally:
        injector.uninstall()


def unbalanced_fields(counted: Mapping[str, float],
                      expected: Mapping[str, float]) -> List[str]:
    """``IOStats.to_dict()`` fields on which two ledgers disagree."""
    bad: List[str] = []
    for field, want in expected.items():
        got = counted[field]
        if field == "simulated_ms":
            if abs(got - want) > MS_RTOL * max(abs(got), abs(want), 1.0):
                bad.append(field)
        elif got != want:
            bad.append(field)
    return bad
