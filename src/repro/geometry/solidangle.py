"""Solid-angle utilities.

DoV is defined as the solid angle of the visible part of a point set
divided by ``4 * pi`` (paper, Section 3.1).  These helpers give
closed-form solid angles, the analytic references the DoV estimators
are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import as_vec3

FULL_SPHERE = 4.0 * np.pi


def sphere_solid_angle(distance: float, radius: float) -> float:
    """Exact solid angle of a sphere of ``radius`` seen from ``distance``.

    ``Omega = 2 * pi * (1 - sqrt(1 - (r/d)^2))`` for ``d > r``; the full
    ``4 * pi`` when the viewpoint is inside the sphere.
    """
    if radius <= 0:
        raise GeometryError(f"radius must be positive, got {radius}")
    if distance <= radius:
        return FULL_SPHERE
    ratio = radius / distance
    return float(2.0 * np.pi * (1.0 - np.sqrt(1.0 - ratio * ratio)))


def triangle_solid_angle(viewpoint, a, b, c) -> float:
    """Exact solid angle of a triangle (Van Oosterom & Strackee).

    Returns the absolute solid angle in steradians.
    """
    p = as_vec3(viewpoint)
    ra = as_vec3(a) - p
    rb = as_vec3(b) - p
    rc = as_vec3(c) - p
    la, lb, lc = (np.linalg.norm(v) for v in (ra, rb, rc))
    if min(la, lb, lc) == 0.0:
        raise GeometryError("viewpoint coincides with a triangle vertex")
    numerator = float(np.dot(ra, np.cross(rb, rc)))
    denominator = float(
        la * lb * lc + np.dot(ra, rb) * lc + np.dot(ra, rc) * lb
        + np.dot(rb, rc) * la)
    return abs(2.0 * np.arctan2(numerator, denominator))
