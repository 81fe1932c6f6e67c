"""``repro chaos`` — a recorded walkthrough replayed under fault injection.

Builds a fresh environment against a fresh metrics registry, replays the
requested session twice — once clean (the fidelity baseline), once with
a named :class:`~repro.storage.faults.FaultPlan` installed beneath the
storage layer — and reports what the resilience stack did about it:
frames survived, subtrees degraded to internal LoDs, pageio retries and
give-ups, corrupt pages detected, and the fidelity cost of degrading.

The report is plain dict/list/scalar data, ready for ``json.dump``, and
deliberately contains *no wall-clock measurements*: everything in it is
a pure function of (scale, session, eta, scheme, plan, seed), so two
runs with the same arguments must produce byte-identical JSON — the CI
chaos job diffs exactly that.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.replay import (build_world, injected_faults, load_scale,
                              replay, session_path)
from repro.storage.faults import named_plan
from repro.storage.pagedfile import PagedFile
from repro.walkthrough.visual import WalkthroughReport


def _per_file_values(files: List[PagedFile],
                     read: Callable[[str], float]) -> Dict[str, float]:
    """``{file name: counter value}``, omitting files that never fired.

    ``read`` looks one file's counter up by name — a callable rather
    than a metric-name string so the name constant stays visible at the
    ``registry.value()`` call site (RPR002).
    """
    out: Dict[str, float] = {}
    for pfile in files:
        value = read(pfile.name)
        if value:
            out[pfile.name] = value
    return out


def run_chaos(*, scale: str = "small", session: int = 1,
              eta: float = 0.001, frames: Optional[int] = None,
              scheme: Optional[str] = None, plan: str = "aggressive",
              seed: int = 0, compress: bool = False) -> Dict[str, object]:
    """Replay one session under ``plan``; returns the JSON-ready report.

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
    plan:
        Name of a built-in fault plan (see
        :func:`repro.storage.faults.plan_names`).
    seed:
        Seed for the fault injector's RNG; same seed, same report.
    compress:
        Build with the packed delta V-page codec, so injected bit flips
        and torn writes land on compressed records (which must degrade,
        never decode garbage).
    """
    fault_plan = named_plan(plan)
    experiment = load_scale(scale)
    registry = MetricsRegistry()
    with use_registry(registry):
        env = build_world(experiment, compress=compress)
        path = session_path(experiment, env, session, frames)

        # Clean replay first: the fidelity baseline, and — because it
        # runs before the injector exists — it cannot consume injector
        # randomness, so the fault sequence depends only on the seed
        # and the (deterministic) faulted workload.
        clean_system, clean = replay(experiment, env, path, eta=eta,
                                     scheme=scheme)
        active = clean_system.delta.search.scheme

        # The faulted replay starts from the same cold state (``replay``
        # resets the environment's run-time state first).
        files = env.files()
        error: Optional[str] = None
        faulted: Optional[WalkthroughReport] = None
        with injected_faults(env, fault_plan, seed) as injector:
            try:
                _, faulted = replay(experiment, env, path, eta=eta,
                                    scheme=scheme)
            except ReproError as exc:
                # Only a fault the degradation ladder cannot absorb (an
                # unreadable R-tree node, a give-up outside a V-page
                # read) lands here; the report says so instead of
                # crashing.
                error = f"{type(exc).__name__}: {exc}"

        completed = faulted is not None
        frames_survived = len(faulted.frames) if faulted is not None else 0
        clean_fidelity = clean.avg_fidelity()
        faulted_fidelity = (faulted.avg_fidelity()
                            if faulted is not None else float("nan"))

        report: Dict[str, object] = {
            "chaos": {
                "scale": scale,
                "session": path.name,
                "eta": eta,
                "scheme": active.name,
                "frames": path.num_frames,
                "plan": fault_plan.name,
                "seed": seed,
                "compress": compress,
            },
            "outcome": {
                "completed": completed,
                "error": error,
                "frames_total": path.num_frames,
                "frames_survived": frames_survived,
            },
            "faults": {
                "injected": dict(sorted(injector.injected.items())),
                "total_injected": injector.total_injected(),
            },
            "resilience": {
                "degraded_frames": (faulted.degraded_frames()
                                    if faulted is not None else 0),
                "total_degradations": (faulted.total_degradations()
                                       if faulted is not None else 0),
                "frames_degraded_total":
                    registry.value(names.FRAMES_DEGRADED),
                "retries": _per_file_values(
                    files, lambda f: registry.value(
                        names.PAGEIO_RETRIES, file=f)),
                "giveups": _per_file_values(
                    files, lambda f: registry.value(
                        names.PAGEIO_GIVEUPS, file=f)),
                "pages_corrupt": _per_file_values(
                    files, lambda f: registry.value(
                        names.PAGES_CORRUPT, file=f)),
            },
            "fidelity": {
                "clean": clean_fidelity,
                "faulted": faulted_fidelity,
                "delta": faulted_fidelity - clean_fidelity,
            },
        }
        # Invariants the CLI turns into an exit code: the walkthrough
        # must survive the plan, and degradation can only *cost*
        # fidelity — a faulted replay beating the clean baseline means
        # the resilience accounting is lying (the epsilon absorbs
        # float summation order, nothing else).
        fidelity_not_improved = (not completed) or \
            faulted_fidelity <= clean_fidelity + 1e-9
        report["invariants"] = {
            "completed": completed,
            "fidelity_not_improved": fidelity_not_improved,
            "ok": completed and fidelity_not_improved,
        }
        return report
