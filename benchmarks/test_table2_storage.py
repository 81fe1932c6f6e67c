"""Bench: Table 2 — storage space of the three schemes.

Prints the regenerated table (paper: horizontal 4 GB vs vertical 267 MB
vs indexed-vertical 152.8 MB; ~20x ratio) and times a scheme layout
build over the precomputed V-page data.
"""

from repro.experiments.config import MEDIUM
from repro.experiments.table2_storage import run_table2


def test_table2_report(benchmark, medium_env_all_schemes, capsys):
    result = benchmark.pedantic(lambda: run_table2(MEDIUM), rounds=1,
                                iterations=1)
    with capsys.disabled():
        print()
        print(result.format_table())
    sizes = {name: b.total_bytes for name, b in result.breakdowns.items()}
    assert sizes["horizontal"] > sizes["vertical"] >= \
        sizes["indexed-vertical"]


def test_scheme_build_time(benchmark, medium_env_all_schemes):
    """Time laying out the indexed-vertical scheme from V-page data."""
    env = medium_env_all_schemes
    from repro.core.schemes.indexed_vertical import IndexedVerticalScheme
    from repro.storage.disk import DiskModel, IOStats
    from repro.storage.pagedfile import PagedFile

    def build():
        stats = IOStats()
        disk = DiskModel()
        scheme = IndexedVerticalScheme(
            PagedFile("v", disk=disk, stats=stats),
            PagedFile("i", disk=disk, stats=stats))
        scheme.build(env.node_store.num_nodes, env.cell_vpages)
        return scheme

    scheme = benchmark(build)
    assert scheme.storage_breakdown().total_bytes > 0
