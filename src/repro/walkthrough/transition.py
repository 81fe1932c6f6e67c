"""Deterministic cell-transition model for predictive prefetch.

The walkthrough workloads the paper cares about are spatially coherent:
successive viewpoints fall in the same or adjacent grid cells, and the
*order* in which a session crosses cells repeats across sessions that
share a route ("Building LOD Representation for 3D Urban Scenes"
motivates exactly this regime).  That makes the next cell learnable: a
first-order Markov model over observed cell-to-cell transitions captures
route structure, while a velocity prior covers the cold start before any
transition has been seen.

The blend is deliberately integer arithmetic so predictions are exact
and platform-independent:

``score(n) = counts[current].get(n, 0) + velocity_weight * [n == velocity_cell]``

over the sorted candidate set (4-neighborhood of the current cell, plus
the velocity-extrapolated cell).  The argmax requires a strictly
positive score and breaks ties toward the smallest cell id, so with no
recorded transitions the model reproduces the velocity-only heuristic
exactly — the zero-knowledge special case.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import WalkthroughError
from repro.visibility.cells import CellGrid


class CellTransitionModel:
    """Online first-order Markov model over grid-cell transitions.

    Parameters
    ----------
    grid:
        The viewing-cell grid (provides neighborhoods and point lookup).
    velocity_weight:
        Integer pseudo-count credited to the velocity-extrapolated cell.
        Observed transitions out-vote the prior once a candidate's count
        exceeds the velocity cell's count plus this weight.
    trigger_fraction:
        Lookahead distance for the velocity prior, as a fraction of the
        cell size.
    """

    def __init__(self, grid: CellGrid, *, velocity_weight: int = 3,
                 trigger_fraction: float = 0.5) -> None:
        if velocity_weight < 1:
            raise WalkthroughError(
                f"velocity_weight must be >= 1, got {velocity_weight}")
        if not 0.0 < trigger_fraction <= 2.0:
            raise WalkthroughError(
                f"trigger_fraction must be in (0, 2], got {trigger_fraction}")
        self.grid = grid
        self.velocity_weight = velocity_weight
        self.trigger_fraction = trigger_fraction
        #: ``counts[from_cell][to_cell]`` -> observed transition count.
        self._counts: Dict[int, Dict[int, int]] = {}
        self.transitions = 0
        self.predictions = 0

    # -- learning -------------------------------------------------------------

    def record_transition(self, from_cell: int, to_cell: int) -> None:
        """Record one observed cell crossing (self-loops are ignored)."""
        if from_cell == to_cell:
            return
        row = self._counts.setdefault(from_cell, {})
        row[to_cell] = row.get(to_cell, 0) + 1
        self.transitions += 1

    def transition_count(self, from_cell: int, to_cell: int) -> int:
        return self._counts.get(from_cell, {}).get(to_cell, 0)

    # -- prediction -----------------------------------------------------------

    def velocity_cell(self, position: np.ndarray,
                      last_position: Optional[np.ndarray]) -> Optional[int]:
        """The cell a velocity extrapolation lands in, or ``None``.

        Cells partition the horizontal plane, so both the direction and
        the normalising speed use the planar velocity only — mixing
        components would inflate the lookahead under vertical motion.
        """
        if last_position is None:
            return None
        current = self.grid.cell_of_point(position)
        velocity = position - last_position
        planar = velocity.copy()
        planar[2] = 0.0
        speed = float(np.linalg.norm(planar))
        if speed == 0.0:
            return None
        lookahead = position + planar / speed * (
            self.grid.cell_size * self.trigger_fraction)
        predicted = self.grid.cell_of_point(lookahead)
        if predicted == current:
            return None
        return predicted

    def predict(self, current_cell: int,
                velocity_cell: Optional[int]) -> Optional[int]:
        """The most likely next cell, or ``None`` if nothing scores.

        Candidates are the 4-neighborhood of ``current_cell`` plus the
        velocity cell (which may be a diagonal neighbor).  The winner
        must score strictly above every later candidate *and* above
        zero; candidates are scanned in sorted-id order, so ties break
        toward the smallest cell id — deterministically.
        """
        candidates = set(self.grid.neighbors(current_cell))
        if velocity_cell is not None and velocity_cell != current_cell:
            candidates.add(velocity_cell)
        row = self._counts.get(current_cell, {})
        best: Optional[int] = None
        best_score = 0
        for cand in sorted(candidates):
            score = row.get(cand, 0)
            if cand == velocity_cell:
                score += self.velocity_weight
            if score > best_score:
                best = cand
                best_score = score
        if best is not None:
            self.predictions += 1
        return best

    def predict_from_motion(self, position: np.ndarray,
                            last_position: Optional[np.ndarray],
                            ) -> Optional[int]:
        """Convenience: velocity prior + Markov blend from raw positions."""
        current = self.grid.cell_of_point(position)
        return self.predict(current,
                            self.velocity_cell(position, last_position))

    def __repr__(self) -> str:
        return (f"CellTransitionModel(transitions={self.transitions}, "
                f"predictions={self.predictions})")
