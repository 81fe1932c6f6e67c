"""Recorded walkthrough sessions.

The paper records sessions with three motion patterns and replays them on
both systems (Section 5.4): session 1 is a normal walkthrough; session 2
turns left and right; session 3 moves back and forward frequently.  These
generators produce the equivalent deterministic viewpoint paths at eye
height.

Paths follow the city's *street lines*: in the procedural city, building
blocks are centered at half-pitch offsets of the constant
:data:`~repro.scene.city.STREET_PITCH` (120 m), so the lines
``x = k * pitch`` / ``y = k * pitch`` run down the middle of streets.  A
viewpoint inside a building would see nothing (its bounding box
occludes the whole sphere), which no real walkthrough does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import WalkthroughError
from repro.geometry.aabb import AABB
from repro.scene.city import STREET_PITCH


@dataclass(frozen=True)
class Waypoint:
    """One frame's viewpoint: position and unit view direction."""

    position: Tuple[float, float, float]
    direction: Tuple[float, float, float]

    def position_array(self) -> np.ndarray:
        return np.asarray(self.position, dtype=np.float64)

    def direction_array(self) -> np.ndarray:
        return np.asarray(self.direction, dtype=np.float64)


@dataclass(frozen=True)
class Session:
    """A recorded sequence of frames."""

    name: str
    waypoints: Tuple[Waypoint, ...]

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise WalkthroughError(f"session {self.name!r} has no frames")

    @property
    def num_frames(self) -> int:
        return len(self.waypoints)

    def __iter__(self) -> Iterator[Waypoint]:
        return iter(self.waypoints)


def _direction(dx: float, dy: float) -> Tuple[float, float, float]:
    norm = float(np.hypot(dx, dy))
    if norm == 0.0:
        return (1.0, 0.0, 0.0)
    return (dx / norm, dy / norm, 0.0)


def street_lines(bounds: AABB, pitch: Optional[float],
                 axis: int = 1) -> List[float]:
    """Coordinates of interior street center lines along ``axis``.

    With no pitch, returns the single mid-line of the bounds.
    """
    lo = float(bounds.lo[axis])
    hi = float(bounds.hi[axis])
    if pitch is None or pitch <= 0:
        return [(lo + hi) / 2.0]
    first = int(np.ceil(lo / pitch))
    last = int(np.floor(hi / pitch))
    lines = [k * pitch for k in range(first, last + 1)
             if lo < k * pitch < hi]
    return lines or [(lo + hi) / 2.0]


def street_viewpoints(bounds: AABB, pitch: Optional[float], count: int,
                      *, eye_height: float = 1.7,
                      seed: int = 0) -> List[np.ndarray]:
    """Deterministic random viewpoints on the street network.

    Used by the visibility-query experiments, which test "random
    viewpoint positions obtained from the precomputed cells" — real
    walkthrough positions, i.e. on streets, not inside buildings.
    """
    if count < 1:
        raise WalkthroughError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    xs = street_lines(bounds, pitch, axis=0)
    ys = street_lines(bounds, pitch, axis=1)
    points = []
    for _ in range(count):
        if rng.random() < 0.5:
            # Walk an x street: x fixed to a line, y free.
            x = float(rng.choice(xs))
            y = float(rng.uniform(bounds.lo[1], bounds.hi[1]))
        else:
            x = float(rng.uniform(bounds.lo[0], bounds.hi[0]))
            y = float(rng.choice(ys))
        points.append(np.array([x, y, eye_height]))
    return points


def normal_walkthrough(bounds: AABB, *, num_frames: int = 120,
                       eye_height: float = 1.7) -> Session:
    """Session 1: a steady walk down a long street, with one turn onto a
    cross street halfway."""
    ys = street_lines(bounds, STREET_PITCH, axis=1)
    xs = street_lines(bounds, STREET_PITCH, axis=0)
    y_street = ys[len(ys) // 2]
    x_turn = xs[len(xs) // 2]
    margin = 0.06 * (bounds.hi[0] - bounds.lo[0])
    x0 = float(bounds.lo[0]) + margin
    y1 = float(bounds.hi[1]) - 0.06 * (bounds.hi[1] - bounds.lo[1])
    # Leg 1: along y_street from x0 to x_turn; leg 2: up x_turn to y1.
    leg1 = abs(x_turn - x0)
    leg2 = abs(y1 - y_street)
    total = leg1 + leg2
    waypoints: List[Waypoint] = []
    for t in np.linspace(0.0, 1.0, num_frames):
        s = t * total
        if s <= leg1:
            waypoints.append(Waypoint(
                (float(x0 + s), float(y_street), eye_height),
                _direction(1.0, 0.0)))
        else:
            waypoints.append(Waypoint(
                (float(x_turn), float(y_street + (s - leg1)), eye_height),
                _direction(0.0, 1.0)))
    return Session("session-1-normal", tuple(waypoints))


def turning_walkthrough(bounds: AABB, *, num_frames: int = 120,
                        eye_height: float = 1.7) -> Session:
    """Session 2: slow forward motion with the view sweeping left-right.

    View-direction changes are what punish spatial methods, so the
    position moves little while the direction oscillates widely.
    """
    ys = street_lines(bounds, STREET_PITCH, axis=1)
    y_street = ys[len(ys) // 2]
    span = (bounds.hi[0] - bounds.lo[0]) * 0.3
    x_start = float(bounds.center[0]) - span / 2
    waypoints: List[Waypoint] = []
    for t in np.linspace(0.0, 1.0, num_frames):
        x = x_start + span * t
        angle = 1.2 * np.sin(6.0 * np.pi * t)      # sweep +-~69 degrees
        waypoints.append(Waypoint(
            (float(x), float(y_street), eye_height),
            _direction(float(np.cos(angle)), float(np.sin(angle)))))
    return Session("session-2-turning", tuple(waypoints))


def back_forward_walkthrough(bounds: AABB, *, num_frames: int = 120,
                             eye_height: float = 1.7) -> Session:
    """Session 3: moving back and forward frequently along one street."""
    ys = street_lines(bounds, STREET_PITCH, axis=1)
    y_street = ys[len(ys) // 2]
    span = (bounds.hi[0] - bounds.lo[0]) * 0.25
    center_x = float(bounds.center[0])
    waypoints: List[Waypoint] = []
    for t in np.linspace(0.0, 1.0, num_frames):
        offset = span * np.sin(8.0 * np.pi * t)
        velocity = np.cos(8.0 * np.pi * t)
        direction = _direction(float(np.sign(velocity) or 1.0), 0.0)
        waypoints.append(Waypoint(
            (float(center_x + offset), float(y_street), eye_height),
            direction))
    return Session("session-3-back-forward", tuple(waypoints))


def loop_walkthrough(bounds: AABB, *, num_frames: int = 120,
                     eye_height: float = 1.7) -> Session:
    """Session 4: one lap of a rectangular street circuit.

    The loop traverses each leg once per lap — +x along a low y-street,
    +y up a high x-street, -x along a high y-street, -y back down — so
    unlike sessions 1-3 (monotone or palindromic in cell id) its cell
    trace crosses most grid-adjacent cell pairs in *one* direction.
    Against the build's row-major cell order that is the worst case
    for back seeks — every step of the -x and -y legs jumps backwards
    in the V-page file — which is why the V-page compression bench
    replays it.
    """
    ys = street_lines(bounds, STREET_PITCH, axis=1)
    xs = street_lines(bounds, STREET_PITCH, axis=0)
    # Corner streets: ~1/4 and ~3/4 through the interior lines, kept
    # distinct whenever at least two lines exist on the axis.
    y_lo = ys[len(ys) // 4]
    y_hi = ys[(3 * len(ys)) // 4] if len(ys) > 1 else y_lo
    x_lo = xs[len(xs) // 4]
    x_hi = xs[(3 * len(xs)) // 4] if len(xs) > 1 else x_lo
    corners = [(x_lo, y_lo), (x_hi, y_lo), (x_hi, y_hi), (x_lo, y_hi)]
    legs = []
    for index, (cx, cy) in enumerate(corners):
        nx, ny = corners[(index + 1) % len(corners)]
        length = float(np.hypot(nx - cx, ny - cy))
        legs.append(((cx, cy), (nx, ny), length))
    total = sum(length for _start, _end, length in legs)
    if total <= 0.0:
        # Degenerate bounds (a single street cell): stand still, look +x.
        point = (float(x_lo), float(y_lo), eye_height)
        return Session("session-4-loop", tuple(
            Waypoint(point, _direction(1.0, 0.0))
            for _ in range(num_frames)))
    waypoints: List[Waypoint] = []
    for t in np.linspace(0.0, 1.0, num_frames, endpoint=False):
        s = t * total
        for (cx, cy), (nx, ny), length in legs:
            if s <= length or (cx, cy) == legs[-1][0]:
                f = min(s / length, 1.0) if length > 0 else 0.0
                waypoints.append(Waypoint(
                    (float(cx + (nx - cx) * f), float(cy + (ny - cy) * f),
                     eye_height),
                    _direction(nx - cx, ny - cy)))
                break
            s -= length
    return Session("session-4-loop", tuple(waypoints))


SESSION_BUILDERS = {
    1: normal_walkthrough,
    2: turning_walkthrough,
    3: back_forward_walkthrough,
    4: loop_walkthrough,
}


def make_session(session_number: int, bounds: AABB, *,
                 num_frames: int = 120, eye_height: float = 1.7) -> Session:
    """Build session 1, 2, 3 or 4 over the given environment bounds."""
    builder = SESSION_BUILDERS.get(session_number)
    if builder is None:
        raise WalkthroughError(
            f"unknown session {session_number}; choose 1, 2, 3 or 4")
    if num_frames < 1:
        raise WalkthroughError(
            f"num_frames must be >= 1, got {num_frames}")
    return builder(bounds, num_frames=num_frames, eye_height=eye_height)
