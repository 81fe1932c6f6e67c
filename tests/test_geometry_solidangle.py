"""Solid angle utilities: analytic checks."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.solidangle import FULL_SPHERE, sphere_solid_angle, triangle_solid_angle


def test_sphere_solid_angle_inside_is_full():
    assert sphere_solid_angle(0.5, 1.0) == pytest.approx(FULL_SPHERE)


def test_sphere_solid_angle_far_limit():
    # Far away: Omega ~ pi r^2 / d^2.
    omega = sphere_solid_angle(1000.0, 1.0)
    assert omega == pytest.approx(np.pi / 1000.0 ** 2, rel=1e-4)


def test_sphere_solid_angle_monotone_in_distance():
    values = [sphere_solid_angle(d, 1.0) for d in (2.0, 5.0, 10.0, 100.0)]
    assert values == sorted(values, reverse=True)


def test_sphere_solid_angle_invalid_radius():
    with pytest.raises(GeometryError):
        sphere_solid_angle(1.0, 0.0)


def test_triangle_solid_angle_octant():
    """A triangle spanning one octant's worth of the unit sphere: the
    spherical triangle with vertices on +x, +y, +z axes subtends exactly
    4*pi/8."""
    omega = triangle_solid_angle((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert omega == pytest.approx(FULL_SPHERE / 8.0, rel=1e-9)


def test_triangle_solid_angle_far_limit():
    # Small far triangle: Omega ~ area / d^2.
    d = 500.0
    omega = triangle_solid_angle((0, 0, 0), (d, 0, 0), (d, 1, 0), (d, 0, 1))
    assert omega == pytest.approx(0.5 / d ** 2, rel=1e-3)


def test_triangle_vertex_at_viewpoint_rejected():
    with pytest.raises(GeometryError):
        triangle_solid_angle((0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0))
