"""Bench: extension experiments (features the paper defers).

* frustum-prioritized traversal — response-time speedup;
* tree-node cache sweep — what the paper's "no node caching" decision
  costs at each cache size.
"""

from repro.experiments.config import MEDIUM
from repro.experiments.extensions import (run_node_cache_sweep,
                                          run_priority_extension)


def test_priority_report(benchmark, medium_env, capsys):
    result = benchmark.pedantic(
        lambda: run_priority_extension(MEDIUM, eta=0.001), rounds=1,
        iterations=1)
    with capsys.disabled():
        print()
        print(result.format_table())
    assert result.avg_first_phase_ms <= result.avg_total_ms
    assert result.response_speedup >= 1.0


def test_node_cache_report(benchmark, medium_env, capsys):
    result = benchmark.pedantic(lambda: run_node_cache_sweep(MEDIUM),
                                rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(result.format_table())
    # Bigger caches monotonically reduce node misses.
    assert result.node_ios_per_query == sorted(result.node_ios_per_query,
                                               reverse=True)
