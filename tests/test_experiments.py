"""Experiment drivers at SMALL scale: they run, and the paper's
qualitative shapes hold."""

import math

import pytest

from repro.experiments import (figure7_search_time, run_figure7, run_figure8,
                               run_figure10a, run_figure10b, run_figure11,
                               run_figure12, run_memory_comparison, run_table2,
                               run_table3)
from repro.experiments.ablations import run_flip_scaling, run_nvo_ablation
from repro.experiments.baseline_comparison import run_baseline_comparison
from repro.experiments.config import (SMALL, build_experiment_environment,
                                      clear_environment_cache)
from repro.experiments.figure9_scalability import run_figure9
from repro.scene.datasets import DatasetSpec

ETAS = (0.0, 0.002, 0.01, 0.05)


@pytest.fixture(scope="module", autouse=True)
def _shared_env():
    # Prime the cache once so each driver below reuses it.
    build_experiment_environment(SMALL)
    build_experiment_environment(
        SMALL, schemes=("horizontal", "vertical", "indexed-vertical"))
    yield


def test_table2_ordering():
    result = run_table2(SMALL)
    sizes = {name: b.total_bytes for name, b in result.breakdowns.items()}
    assert sizes["horizontal"] > sizes["vertical"] >= \
        sizes["indexed-vertical"]
    assert result.horizontal_over_indexed > 1.5
    assert "Table 2" in result.format_table()


def test_figure7_shapes():
    result = run_figure7(SMALL, etas=ETAS)
    for name, series in result.search_ms.items():
        # Monotone non-increasing within tolerance.
        assert series[-1] <= series[0] + 1e-9, name
    # Horizontal is the slowest scheme at eta = 0.
    assert result.search_ms["horizontal"][0] >= \
        result.search_ms["indexed-vertical"][0]
    assert result.naive_ms > 0
    assert "Figure 7" in result.format_table()


def test_figure8_shapes():
    result = run_figure8(SMALL, etas=ETAS)
    # eta = 0: heavy I/O identical to naive (same object set).
    assert result.heavy_ios[0] == pytest.approx(
        result.naive_total - result.naive_light, rel=1e-6)
    # Light-weight I/O above naive at eta = 0 (extra internal nodes).
    assert result.light_ios[0] > result.naive_light
    # Light-weight I/O falls with eta.
    assert result.light_ios[-1] < result.light_ios[0]
    # Total I/O falls overall across the sweep.
    assert result.total_ios[-1] < result.total_ios[0]
    assert "Figure 8(a)" in result.format_table()


def test_figure9_near_flat():
    specs = (DatasetSpec("s1", 100, blocks_x=4, blocks_y=4),
             DatasetSpec("s2", 200, blocks_x=6, blocks_y=5))
    result = run_figure9(specs, num_queries=8, dov_resolution=8,
                         cell_size=150.0)
    assert result.num_objects[1] > result.num_objects[0]
    # Traversal cost grows sublinearly with object count.
    growth = result.search_ms[1] / max(result.search_ms[0], 1e-9)
    object_growth = result.num_objects[1] / result.num_objects[0]
    assert growth < object_growth
    assert "Figure 9(a)" in result.format_table()


def test_figure10a_visual_beats_review():
    result = run_figure10a(SMALL, eta=0.002)
    visual, review = result.series
    assert visual.stats.mean_ms < review.stats.mean_ms
    assert visual.report.avg_fidelity() >= review.report.avg_fidelity()
    assert "Figure 10(a)" in result.format_table()


def test_figure10b_larger_eta_not_slower():
    result = run_figure10b(SMALL, eta_fast=0.02, eta_fine=0.0005)
    fast, fine = result.series
    assert fast.stats.mean_ms <= fine.stats.mean_ms * 1.05


def test_figure11_fidelity_ordering():
    result = run_figure11(SMALL, eta=0.002, review_box=120.0)
    by_name = {r.system: r for r in result.rows}
    original = by_name["original models"]
    review = next(r for r in result.rows if r.system.startswith("REVIEW"))
    visual = next(r for r in result.rows if r.system.startswith("VISUAL"))
    assert original.avg_fidelity == 1.0
    assert review.avg_missed_objects > 0       # shortsightedness
    assert visual.avg_missed_objects == 0      # HDoV covers all visible
    assert visual.avg_fidelity > review.avg_fidelity
    assert "Figure 11" in result.format_table()


def test_figure12_visual_queries_cheaper():
    # 360 m is the comparable-fidelity box at this scene scale (the
    # paper's 400 m on its larger environment).
    result = run_figure12(SMALL, eta=0.002, review_box=360.0)
    for number in (1, 2, 3):
        visual_ms, review_ms = result.search_ms[number]
        assert visual_ms < review_ms
        visual_io, review_io = result.ios[number]
        assert visual_io < review_io
    assert "Figure 12(a)" in result.format_table()


def test_table3_shapes():
    result = run_table3(SMALL, etas=(0.0, 0.002, 0.02))
    visual_rows = result.visual_rows()
    assert visual_rows[-1].mean_ms <= visual_rows[0].mean_ms * 1.05
    review = result.review_row()
    assert review is not None
    assert review.mean_ms > visual_rows[-1].mean_ms
    assert not math.isnan(review.fidelity)
    assert "Table 3" in result.format_table()


def test_memory_comparison():
    result = run_memory_comparison(SMALL, etas=(0.002,), review_box=240.0)
    assert result.review_peak() > result.visual_peak()
    assert "Memory usage" in result.format_table()


def test_nvo_ablation_runs():
    result = run_nvo_ablation(SMALL, eta=0.02)
    assert result.with_heuristic[0] > 0
    assert result.without_heuristic[0] > 0
    assert "NVO" in result.format_table()


def test_flip_scaling_asymptotics():
    result = run_flip_scaling(node_counts=(512, 8192), visible_per_cell=16,
                              num_cells=2)
    assert result.vertical_flip_ios[-1] > result.vertical_flip_ios[0]
    assert result.indexed_flip_ios[0] == result.indexed_flip_ios[-1] == 1


# -- every measurement starts cold ------------------------------------------

@pytest.mark.parametrize("run", [run_table3, run_figure10a, run_figure10b,
                                 run_figure12, run_baseline_comparison,
                                 run_memory_comparison],
                         ids=lambda run: run.__name__)
def test_table_does_not_depend_on_what_ran_before(run):
    clear_environment_cache()
    alone = run(SMALL).format_table()
    run_figure8(SMALL)
    assert run(SMALL).format_table() == alone


def test_point_query_charge_does_not_depend_on_the_query_before(
        monkeypatch):
    forward = run_figure7(SMALL)

    original = figure7_search_time.street_viewpoints
    monkeypatch.setattr(figure7_search_time, "street_viewpoints",
                        lambda *args, **kwargs:
                        original(*args, **kwargs)[::-1])
    backward = run_figure7(SMALL)
    assert backward.naive_ms == pytest.approx(forward.naive_ms, rel=1e-9)
    for name, series in forward.search_ms.items():
        assert backward.search_ms[name] == pytest.approx(series, rel=1e-9)
