"""Synthetic city generator.

Produces the paper's evaluation dataset procedurally: a grid of city
blocks, each holding a multi-tier building, with "bunny blob" models
scattered between them.  Buildings act as the large occluders that make
distant objects invisible; bunnies are the dense organic models whose LoD
selection matters.

Determinism: everything derives from ``CityParams.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.geometry.primitives import bunny_blob, tower_mesh
from repro.scene.objects import Scene, SceneObject
from repro.simplify.lod_chain import build_lod_chain


#: Side length of one city block (meters, matching the paper's 100 m /
#: 200 m / 400 m query-box discussion).
BLOCK_SIZE = 100.0
#: Width of the streets between blocks.
STREET_WIDTH = 20.0
#: Center-to-center distance of adjacent blocks: street center lines
#: run at its multiples.
STREET_PITCH = BLOCK_SIZE + STREET_WIDTH
#: Most tiers per building (polygons = 12 * tiers).
MAX_TIERS = 4
#: LoD levels per object.
LOD_LEVELS = 2
#: Face reduction per LoD level.  Equations 5/6 blend the chain's
#: highest and lowest levels, so the coarsest level (reduction **
#: (levels-1), here 50% of finest) sets how cheap a barely-visible
#: object can get.  Keeping it substantial is what makes replacing a
#: group of objects by one internal LoD save real I/O — the economics
#: the eq.-3/4 termination heuristic assumes.
LOD_REDUCTION = 0.5


@dataclass(frozen=True)
class CityParams:
    """Parameters of the synthetic city.

    The defaults give a small city suitable for unit tests; experiments
    scale ``blocks_x``/``blocks_y`` and the per-object polygon budgets.
    """

    blocks_x: int = 6
    blocks_y: int = 6
    #: Fraction of blocks that hold a building (the rest hold bunnies).
    building_fraction: float = 0.7
    #: Bunny models scattered per non-building block.
    bunnies_per_block: int = 2
    #: Subdivision level of bunny icospheres (faces = 20 * 4**s).
    #: 3 gives 1280-face models — heavy enough that LoD choice moves
    #: multiple disk pages, like the paper's bunny models.
    bunny_subdivisions: int = 3
    min_height: float = 30.0
    max_height: float = 150.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.blocks_x < 1 or self.blocks_y < 1:
            raise GeometryError("city needs at least one block")
        if not 0.0 <= self.building_fraction <= 1.0:
            raise GeometryError("building_fraction must be in [0, 1]")
        if self.min_height <= 0 or self.max_height < self.min_height:
            raise GeometryError("invalid height range")

    @property
    def pitch(self) -> float:
        """Center-to-center distance of adjacent blocks."""
        return STREET_PITCH

    @property
    def width(self) -> float:
        return self.blocks_x * self.pitch

    @property
    def depth(self) -> float:
        return self.blocks_y * self.pitch


def generate_city(params: CityParams = CityParams()) -> Scene:
    """Generate the synthetic city scene."""
    rng = np.random.default_rng(params.seed)
    scene = Scene()
    next_id = 0

    for bx in range(params.blocks_x):
        for by in range(params.blocks_y):
            cx = (bx + 0.5) * params.pitch
            cy = (by + 0.5) * params.pitch
            if rng.random() < params.building_fraction:
                next_id = _add_building(scene, params, rng, cx, cy, next_id)
            else:
                next_id = _add_bunnies(scene, params, rng, cx, cy, next_id)
    if len(scene) == 0:
        # Degenerate parameter draw (possible only for tiny cities):
        # guarantee at least one object.
        next_id = _add_building(scene, params, rng,
                                params.pitch / 2, params.pitch / 2, next_id)
    return scene


def _add_building(scene: Scene, params: CityParams, rng, cx: float,
                  cy: float, next_id: int) -> int:
    height = float(rng.uniform(params.min_height, params.max_height))
    tiers = int(rng.integers(1, MAX_TIERS + 1))
    footprint = (
        BLOCK_SIZE * float(rng.uniform(0.5, 0.9)),
        BLOCK_SIZE * float(rng.uniform(0.5, 0.9)),
    )
    mesh = tower_mesh((cx, cy, 0.0), footprint, height, tiers=tiers)
    lods = build_lod_chain(mesh, num_levels=LOD_LEVELS,
                           reduction=LOD_REDUCTION)
    scene.add(SceneObject(next_id, lods, category="building"))
    return next_id + 1


def _add_bunnies(scene: Scene, params: CityParams, rng, cx: float,
                 cy: float, next_id: int) -> int:
    for _ in range(params.bunnies_per_block):
        radius = BLOCK_SIZE * float(rng.uniform(0.05, 0.10))
        offset_x = float(rng.uniform(-0.3, 0.3)) * BLOCK_SIZE
        offset_y = float(rng.uniform(-0.3, 0.3)) * BLOCK_SIZE
        mesh = bunny_blob(
            radius=radius,
            subdivisions=params.bunny_subdivisions,
            seed=int(rng.integers(0, 2 ** 31)),
            center=(cx + offset_x, cy + offset_y, radius),
        )
        lods = build_lod_chain(mesh, num_levels=LOD_LEVELS,
                               reduction=LOD_REDUCTION)
        scene.add(SceneObject(next_id, lods, category="bunny"))
        next_id += 1
    return next_id
