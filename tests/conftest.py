"""Shared fixtures: a small deterministic city environment.

The environment build (city generation, LoD chains, DoV precompute,
three storage schemes) takes a few seconds, so it is session-scoped and
shared; tests that mutate stats must reset them (``env.reset_stats()``)
rather than rely on absolute counter values.
"""

from __future__ import annotations

import pytest

from repro.core.hdov_tree import HDoVConfig, build_environment
from repro.scene.city import CityParams, generate_city
from repro.visibility.cells import CellGrid

SMALL_CITY = CityParams(blocks_x=5, blocks_y=5, seed=13,
                        bunnies_per_block=3, building_fraction=0.45,
                        min_height=20.0, max_height=80.0,
                        bunny_subdivisions=2)


@pytest.fixture(scope="session")
def small_scene():
    return generate_city(SMALL_CITY)


@pytest.fixture(scope="session")
def small_grid(small_scene):
    return CellGrid.covering(small_scene.bounds(), cell_size=120.0)


@pytest.fixture(scope="session")
def small_env(small_scene, small_grid):
    """Environment with all three schemes over the small city."""
    config = HDoVConfig(
        dov_resolution=16,
        schemes=("horizontal", "vertical", "indexed-vertical"),
    )
    return build_environment(small_scene, small_grid, config)


@pytest.fixture(scope="session")
def small_env_packed(small_scene, small_grid):
    """The same environment built with delta-compressed V-pages."""
    config = HDoVConfig(
        dov_resolution=16,
        schemes=("vertical", "indexed-vertical"),
        compress_vpages=True,
    )
    return build_environment(small_scene, small_grid, config)


@pytest.fixture()
def env(small_env):
    """Per-test view of the shared environment with clean stats."""
    small_env.reset_stats()
    for scheme in small_env.schemes.values():
        scheme.reset_io_head()
    return small_env


@pytest.fixture()
def env_packed(small_env_packed):
    small_env_packed.reset_stats()
    for scheme in small_env_packed.schemes.values():
        scheme.reset_runtime_state()
    return small_env_packed


@pytest.fixture()
def delta_totals_checked(monkeypatch):
    """Hold ``ResidentModels``' running ``bytes`` to the recomputed sum
    after every operation that changes the set — VISUAL's two sets,
    REVIEW's and the LoD-R-tree's alike."""
    from repro.core.delta import ResidentModels

    def checked(method):
        def wrapper(self, *args, **kwargs):
            try:
                return method(self, *args, **kwargs)
            finally:
                assert self.bytes == sum(self[key][1] for key in self)
        return wrapper

    for name in ("want", "drop", "keep_only", "clear"):
        monkeypatch.setattr(ResidentModels, name,
                            checked(getattr(ResidentModels, name)))
