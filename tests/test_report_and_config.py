"""Report formatting, experiment config, and library constants."""

import dataclasses

import pytest

from repro import constants
from repro.errors import ExperimentError
from repro.experiments.config import (ETA_SWEEP, LARGE, MEDIUM, SMALL,
                                      build_experiment_environment,
                                      clear_environment_cache, get_scale)
from repro.experiments.report import format_series, format_table


# -- report formatting --------------------------------------------------------

def test_format_table_alignment():
    out = format_table("Title", ["a", "long header"],
                       [[1, 2.5], [30, 0.001]])
    lines = out.splitlines()
    assert lines[0] == "Title"
    assert lines[1] == "=" * len("Title")
    assert "long header" in lines[2]
    widths = {len(line) for line in lines[2:]}
    assert len(widths) == 1          # all rows aligned


def test_format_table_number_styles():
    out = format_table("T", ["x"], [[1234567], [0.00005], [1.25], [0]])
    assert "1,234,567" in out
    assert "0.00005" in out
    assert "1.25" in out


def test_format_series():
    out = format_series("S", "eta", [0.0, 0.5],
                        [("a", [1.0, 2.0]), ("b", [3.0, 4.0])])
    assert "eta" in out
    assert "a" in out and "b" in out
    assert "4.00" in out


def test_format_series_prints_the_x_axis_exactly():
    """Every η of the sweep prints as the value it ran (0.016, not
    "0.02"); the y cells keep their two decimals."""
    out = format_series("S", "eta", list(ETA_SWEEP),
                        [("y", [0.016] * len(ETA_SWEEP))])
    rows = [line.split() for line in out.splitlines()[4:]]
    assert [float(x) for x, _y in rows] == list(ETA_SWEEP)
    assert {y for _x, y in rows} == {"0.02"}


# -- constants ------------------------------------------------------------

def test_paper_constants():
    assert constants.MAXDOV == 0.5
    assert constants.ETA_RANGE == (0.0, 0.008)
    assert constants.ETA_GRID[0] == 0.0
    assert constants.ETA_GRID[-1] == 0.008
    assert list(constants.ETA_GRID) == sorted(constants.ETA_GRID)


def test_sizes_positive():
    assert constants.PAGE_SIZE > 0
    assert constants.BYTES_PER_POLYGON > 0


# -- experiment config ----------------------------------------------------------

def test_scales_are_ordered():
    assert SMALL.city.blocks_x < MEDIUM.city.blocks_x
    assert MEDIUM.city.blocks_x <= LARGE.city.blocks_x
    assert SMALL.session_frames < MEDIUM.session_frames


def test_eta_sweep_extends_paper_grid():
    assert ETA_SWEEP[0] == 0.0
    assert 0.008 in ETA_SWEEP
    assert ETA_SWEEP[-1] > 0.008
    assert list(ETA_SWEEP) == sorted(set(ETA_SWEEP))


def test_get_scale():
    assert get_scale("small") is SMALL
    with pytest.raises(ExperimentError):
        get_scale("huge")


def test_scales_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SMALL.cell_size = 1.0      # type: ignore[misc]


def test_with_schemes_override():
    modified = SMALL.with_schemes(["horizontal"])
    assert modified.hdov.schemes == ("horizontal",)
    assert SMALL.hdov.schemes != ("horizontal",)   # original untouched


def test_environment_cache_reuses_and_clears():
    env_a = build_experiment_environment(SMALL)
    env_b = build_experiment_environment(SMALL)
    assert env_a is env_b
    clear_environment_cache()
    env_c = build_experiment_environment(SMALL)
    assert env_c is not env_a


def test_environment_cache_keyed_by_schemes():
    env_default = build_experiment_environment(SMALL)
    env_all = build_experiment_environment(
        SMALL, schemes=("horizontal", "vertical", "indexed-vertical"))
    assert env_default is not env_all
    assert set(env_all.schemes) == {"horizontal", "vertical",
                                    "indexed-vertical"}
