"""Bench: Figure 10 — per-frame time, VISUAL vs REVIEW and eta vs eta.

Prints summary statistics of both panels plus a spike profile (the
paper's "choppiness" claim: REVIEW's query frames stall much longer),
and times a full VISUAL session replay.
"""

from repro.experiments.config import MEDIUM
from repro.experiments.figure10_frametime import run_figure10a, run_figure10b
from repro.walkthrough.session import make_session
from repro.walkthrough.visual import VisualSystem


def test_figure10a_report(benchmark, medium_env, capsys):
    result = benchmark.pedantic(lambda: run_figure10a(MEDIUM, eta=0.001),
                                rounds=1, iterations=1)
    visual, review = result.series
    with capsys.disabled():
        print()
        print(result.format_table())
        spikes_v = sorted((f.frame_ms for f in visual.report.frames),
                          reverse=True)[:5]
        spikes_r = sorted((f.frame_ms for f in review.report.frames),
                          reverse=True)[:5]
        print(f"tallest VISUAL spikes (ms): "
              f"{[round(s) for s in spikes_v]}")
        print(f"tallest REVIEW spikes (ms): "
              f"{[round(s) for s in spikes_r]}")
    # Paper's claims: REVIEW slower and choppier at comparable fidelity.
    assert visual.stats.mean_ms < review.stats.mean_ms
    assert visual.stats.variance < review.stats.variance
    assert visual.report.avg_fidelity() > review.report.avg_fidelity()


def test_figure10b_report(benchmark, medium_env, capsys):
    # The paper compares 0.001 vs 0.0003 on its ~1.6 GB environment; our
    # city is ~25x smaller, which shifts object DoVs (and hence the
    # useful eta band) upward by roughly that scale's square root — the
    # equivalent pair here is 0.008 vs 0.0003 (see EXPERIMENTS.md).
    result = benchmark.pedantic(
        lambda: run_figure10b(MEDIUM, eta_fast=0.008, eta_fine=0.0003),
        rounds=1, iterations=1)
    fast, fine = result.series
    with capsys.disabled():
        print()
        print(result.format_table())
    # The larger threshold gives a faster, smoother walkthrough (the
    # paper reports up to 20% faster).
    assert fast.stats.mean_ms < fine.stats.mean_ms
    assert fast.stats.variance < fine.stats.variance


def test_visual_session_wallclock(benchmark, medium_env):
    env = medium_env
    session = make_session(1, env.scene.bounds(), num_frames=50)

    def replay():
        system = VisualSystem(env, eta=0.001, evaluate_fidelity=False)
        return system.run(session)

    report = benchmark(replay)
    assert len(report.frames) == 50
