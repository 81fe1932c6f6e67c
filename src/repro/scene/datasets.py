"""Scaled dataset series for the scalability experiment.

The paper's datasets range from 400 MB to 1.6 GB of raw model data.  A
Python reproduction cannot comfortably materialise gigabytes of meshes,
so each :class:`DatasetSpec` builds a city whose *object counts* scale
linearly across the series while its *modelled* byte size (every LoD's
``byte_size``) is scaled up by a declared multiplier to hit the paper's
nominal sizes.  Figure 9 plots cost against dataset size; the cost drivers
(number of objects, tree size, visible-set size) all scale with object
count, which this series preserves exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ExperimentError
from repro.scene.city import CityParams, generate_city
from repro.scene.objects import Scene


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset of the scalability series."""

    name: str
    #: The paper's nominal raw size in MB.
    nominal_mb: int
    #: City grid for this dataset.
    blocks_x: int
    blocks_y: int
    seed: int = 11

    def params(self) -> CityParams:
        return CityParams(blocks_x=self.blocks_x, blocks_y=self.blocks_y,
                          seed=self.seed)

    def build(self) -> Scene:
        return generate_city(self.params())


#: The paper's series: "datasets ranging from 400 MB to 1.6 GB".  Object
#: counts scale 1x, 2x, 3x, 4x with the nominal sizes.
DATASET_SERIES: Tuple[DatasetSpec, ...] = (
    DatasetSpec("city-400MB", 400, blocks_x=6, blocks_y=6),
    DatasetSpec("city-800MB", 800, blocks_x=9, blocks_y=8),
    DatasetSpec("city-1200MB", 1200, blocks_x=11, blocks_y=10),
    DatasetSpec("city-1600MB", 1600, blocks_x=12, blocks_y=12),
)


def build_dataset(name: str) -> Scene:
    """Build a dataset of the series by name."""
    for spec in DATASET_SERIES:
        if spec.name == name:
            return spec.build()
    raise ExperimentError(
        f"unknown dataset {name!r}; choose from "
        f"{[s.name for s in DATASET_SERIES]}")
