"""Bench: Figure 12 — search performance across motion patterns.

Prints both panels (avg search time per query, avg I/Os per query) for
sessions 1-3 and times a REVIEW session replay for comparison against
the VISUAL replay timed in the figure-10 bench.
"""

from repro.experiments.config import MEDIUM
from repro.experiments.figure12_sessions import SESSION_NUMBERS, run_figure12
from repro.walkthrough.session import make_session
from repro.walkthrough.visual import ReviewWalkthrough


def test_figure12_report(benchmark, medium_env, capsys):
    result = benchmark.pedantic(
        lambda: run_figure12(MEDIUM, eta=0.001,
                             review_box=MEDIUM.review_box_comparable),
        rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(result.format_table())
    for number in SESSION_NUMBERS:
        visual_ms, review_ms = result.search_ms[number]
        visual_io, review_io = result.ios[number]
        assert visual_ms < review_ms
        assert visual_io < review_io


def test_review_session_wallclock(benchmark, medium_env):
    env = medium_env
    session = make_session(1, env.scene.bounds(), num_frames=50)

    def replay():
        system = ReviewWalkthrough(env, box_size=400.0,
                                   evaluate_fidelity=False)
        return system.run(session)

    report = benchmark(replay)
    assert len(report.frames) == 50
