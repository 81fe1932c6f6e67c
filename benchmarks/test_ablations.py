"""Bench: ablations — design choices the paper fixes but never varies.

* NVO-heuristic on/off (eq. 4);
* cell-flip I/O vs tree size (vertical O(N_node) vs indexed-vertical
  O(N_vnode), the Section 4.3 scalability argument).
"""

from repro.experiments.ablations import run_flip_scaling, run_nvo_ablation
from repro.experiments.config import MEDIUM


def test_nvo_heuristic_report(benchmark, medium_env, capsys):
    result = benchmark.pedantic(lambda: run_nvo_ablation(MEDIUM, eta=0.008),
                                rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(result.format_table())
    # Without the eq.-4 gate every small-DoV entry terminates; the gate
    # exists to bound the polygon load of what gets rendered, so the
    # gated variant never renders more.
    assert result.with_heuristic[1] <= result.without_heuristic[1] * 1.05


def test_flip_scaling_report(benchmark, capsys):
    result = benchmark.pedantic(lambda: run_flip_scaling(), rounds=1,
                                iterations=1)
    with capsys.disabled():
        print()
        print(result.format_table())
    # Vertical flips grow linearly with N_node; indexed stays flat.
    assert result.vertical_flip_ios[-1] >= 8 * result.vertical_flip_ios[0]
    assert all(io == result.indexed_flip_ios[0]
               for io in result.indexed_flip_ios)


def test_flip_scaling_wallclock(benchmark):
    result = benchmark(lambda: run_flip_scaling(node_counts=(512, 4096)))
    assert result.node_counts == [512, 4096]
