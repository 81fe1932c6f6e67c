"""Adaptive DoV-threshold control.

The paper motivates tunability: "Depending on the users' needs and the
computing power of the machines, different users may see visible
objects with different degree of fidelity."  It leaves the tuning to
the user; this module closes the loop — a small feedback controller
that adjusts ``eta`` each frame to hold a target frame time, giving a
machine-independent way to pick the threshold.

The controller is multiplicative with clamping: frames slower than the
target raise eta (coarser, faster), faster frames lower it (finer),
with a dead band to avoid oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.hdov_tree import HDoVEnvironment
from repro.errors import WalkthroughError
from repro.walkthrough.frame import FrameModel
from repro.walkthrough.session import Session
from repro.walkthrough.visual import VisualSystem, WalkthroughReport


@dataclass
class EtaController:
    """Multiplicative frame-time controller for ``eta``.

    Attributes
    ----------
    target_ms:
        Desired frame time.
    eta_min, eta_max:
        Clamp range (``eta_min > 0`` so eq. 5 stays defined).
    gain:
        Fractional step per relative error (0.5 means a 100% error
        changes eta by 50%).
    dead_band:
        Relative error below which eta is left unchanged.
    """

    target_ms: float
    eta_min: float = 1e-5
    eta_max: float = 0.064
    gain: float = 0.5
    dead_band: float = 0.1

    def __post_init__(self) -> None:
        if self.target_ms <= 0:
            raise WalkthroughError(f"target_ms must be > 0: {self.target_ms}")
        if not 0 < self.eta_min < self.eta_max:
            raise WalkthroughError("need 0 < eta_min < eta_max")
        if self.gain <= 0:
            raise WalkthroughError(f"gain must be > 0: {self.gain}")

    def update(self, eta: float, frame_ms: float) -> float:
        """Next eta given the last frame's time."""
        error = (frame_ms - self.target_ms) / self.target_ms
        if abs(error) <= self.dead_band:
            return eta
        factor = 1.0 + self.gain * max(min(error, 2.0), -0.9)
        return float(min(max(eta * factor, self.eta_min), self.eta_max))


class AdaptiveVisualSystem(VisualSystem):
    """VISUAL with per-frame eta adaptation."""

    def __init__(self, env: HDoVEnvironment, controller: EtaController, *,
                 initial_eta: float = 0.001,
                 scheme: Optional[str] = None,
                 frame_model: Optional[FrameModel] = None,
                 cache_budget_bytes: Optional[int] = None) -> None:
        super().__init__(env, eta=initial_eta, scheme=scheme,
                         frame_model=frame_model, evaluate_fidelity=False,
                         cache_budget_bytes=cache_budget_bytes)
        self.controller = controller
        #: eta value used at each frame (for analysis).
        self.eta_trace: List[float] = []

    def run(self, session: Session) -> WalkthroughReport:
        self._begin_replay()
        self.eta_trace = []
        for index, waypoint in enumerate(session):
            self._frame(index, waypoint.position_array())
            self.eta_trace.append(self.eta)
            new_eta = self.controller.update(self.eta, self.last_frame_ms)
            # Change detection, not numeric comparison: the controller
            # returns self.eta unchanged (same object) when it makes no
            # adjustment, so exact inequality is the right test here.
            if new_eta != self.eta:  # repro: ignore[RPR005]
                self.eta = new_eta
                # The cached cell result was computed at the old eta.
                self._last_cell = None
        return WalkthroughReport(system="VISUAL(adaptive)",
                                 session=session.name, frames=self.frames)
