"""Tests for the deterministic cell-transition model (PR 10).

The model must reproduce the historical velocity-only heuristic exactly
when it has seen no transitions (the zero-knowledge special case), and
its Markov counts must take over — deterministically, with integer
arithmetic and smallest-id tie breaks — once observation outweighs the
velocity prior.
"""

import numpy as np
import pytest

from repro.errors import WalkthroughError
from repro.visibility.cells import CellGrid
from repro.walkthrough.transition import CellTransitionModel


@pytest.fixture()
def grid():
    # 4x4 cells of 10 m; cell_id = ix * 4 + iy.
    return CellGrid(origin=(0.0, 0.0), cell_size=10.0, cells_x=4,
                    cells_y=4)


@pytest.fixture()
def model(grid):
    return CellTransitionModel(grid)


CENTER = 5          # cell (1, 1): all four neighbors exist
EAST, WEST, NORTH, SOUTH = 9, 1, 6, 4


def test_parameter_validation(grid):
    with pytest.raises(WalkthroughError):
        CellTransitionModel(grid, velocity_weight=0)
    with pytest.raises(WalkthroughError):
        CellTransitionModel(grid, trigger_fraction=0.0)
    with pytest.raises(WalkthroughError):
        CellTransitionModel(grid, trigger_fraction=2.5)


def test_record_transition_counts(model):
    model.record_transition(CENTER, EAST)
    model.record_transition(CENTER, EAST)
    model.record_transition(CENTER, NORTH)
    assert model.transition_count(CENTER, EAST) == 2
    assert model.transition_count(CENTER, NORTH) == 1
    assert model.transition_count(CENTER, WEST) == 0
    assert model.transitions == 3


def test_self_loop_is_ignored(model):
    model.record_transition(CENTER, CENTER)
    assert model.transition_count(CENTER, CENTER) == 0
    assert model.transitions == 0


def test_velocity_cell_needs_history_and_motion(grid, model):
    center = grid.cell_center(CENTER)
    assert model.velocity_cell(center, None) is None
    assert model.velocity_cell(center, center.copy()) is None
    # Vertical-only motion has zero planar speed: no prediction.
    below = center - np.array([0.0, 0.0, 1.0])
    assert model.velocity_cell(center, below) is None


def test_velocity_cell_extrapolates_planar_motion(grid, model):
    center = grid.cell_center(CENTER)
    last = center - np.array([1.0, 0.0, 0.0])
    # Lookahead = cell_size * 0.5 = 5 m along +x: crosses into EAST.
    assert model.velocity_cell(center, last) == EAST
    # A short lookahead stays inside the current cell: None.
    tight = CellTransitionModel(grid, trigger_fraction=0.1)
    assert tight.velocity_cell(center, last) is None


def test_empty_model_is_velocity_only(model):
    # No counts: only the velocity cell scores, so it wins...
    assert model.predict(CENTER, EAST) == EAST
    # ... and without a velocity cell nothing scores above zero.
    assert model.predict(CENTER, None) is None
    assert model.predictions == 1


def test_markov_counts_override_velocity_prior(grid, model):
    # Observation equal to the prior loses the tie unless it sorts
    # first; strictly above the prior, it wins outright.
    for _ in range(model.velocity_weight + 1):
        model.record_transition(CENTER, NORTH)
    assert model.predict(CENTER, EAST) == NORTH
    # A single observation cannot beat the prior.
    fresh = CellTransitionModel(grid)
    fresh.record_transition(CENTER, NORTH)
    assert fresh.predict(CENTER, EAST) == EAST


def test_tie_breaks_toward_smallest_cell_id(model):
    model.record_transition(CENTER, NORTH)
    model.record_transition(CENTER, SOUTH)
    # NORTH=6 and SOUTH=4 tie on count; the smaller id wins, every run.
    assert model.predict(CENTER, None) == SOUTH


def test_stationary_viewer_still_predicts_from_history(grid, model):
    # A viewer pausing at a junction keeps the learned route: velocity
    # contributes nothing, the Markov row decides alone.
    model.record_transition(CENTER, EAST)
    center = grid.cell_center(CENTER)
    assert model.predict_from_motion(center, center.copy()) == EAST


def test_predict_from_motion_blends_both_signals(grid, model):
    center = grid.cell_center(CENTER)
    last = center - np.array([1.0, 0.0, 0.0])
    # Velocity says EAST; four observations of NORTH out-vote it.
    assert model.predict_from_motion(center, last) == EAST
    for _ in range(model.velocity_weight + 1):
        model.record_transition(CENTER, NORTH)
    assert model.predict_from_motion(center, last) == NORTH
