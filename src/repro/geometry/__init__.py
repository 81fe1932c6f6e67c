"""Geometry substrate: vectors, bounding boxes, meshes, rays.

This package replaces the graphics/OpenGL substrate of the paper's
prototype.  Everything is numpy-backed and deterministic.
"""

from repro.geometry.aabb import AABB, union_aabbs
from repro.geometry.mesh import TriangleMesh
from repro.geometry.rays import (
    ray_aabb_intersect,
    rays_vs_aabbs,
    sphere_direction_grid,
)

__all__ = [
    "AABB",
    "union_aabbs",
    "TriangleMesh",
    "ray_aabb_intersect",
    "rays_vs_aabbs",
    "sphere_direction_grid",
]
