"""The built worlds, pinned.

The fanout, fill factor, split policy, internal-LoD ratio and levels,
street geometry, object-LoD chain and disk model are constants of the
library, not settings.  These fingerprints were recorded when each was
still a configurable default; a constant that drifts from the default it
replaced moves an object, a polygon, a node, a page or a visibility
entry, and fails here.
"""

from __future__ import annotations

from repro.core.hdov_tree import HDoVEnvironment
from repro.obs.replay import build_world, load_scale
from repro.visibility.dov import visibility_digest


def fingerprint(env: HDoVEnvironment) -> dict:
    return {
        "objects": len(env.scene),
        "polygons": sum(obj.lods.finest.num_faces for obj in env.scene),
        "lod_polygons": sum(sum(obj.lods.polygons()) for obj in env.scene),
        "internal_polygons": sum(sum(rec.lod.chain.polygons())
                                 for rec in env.internals.values()),
        "nodes": env.tree.num_nodes,
        "height": env.tree.height,
        "pages": {f.name: f.num_pages for f in env.files()},
        "visibility": visibility_digest(env.visibility),
    }


SMALL_ENV = {
    "objects": 59,
    "polygons": 16596,
    "lod_polygons": 19107,
    "internal_polygons": 1897,
    "nodes": 12,
    "height": 3,
    "pages": {"tree": 12, "models": 236, "vpages-horizontal": 300,
              "vpages-vertical": 154, "vindex-vertical": 1,
              "vpages-indexed-vertical": 154, "vindex-indexed-vertical": 1},
    "visibility": ("24c961c9309f8b9797bfef2656863ff9"
                   "d8da51599ccc323519e6de2c07652eed"),
}

SMALL_SCALE = {
    "objects": 117,
    "polygons": 138576,
    "lod_polygons": 165611,
    "internal_polygons": 19446,
    "nodes": 19,
    "height": 3,
    "pages": {"tree": 19, "models": 1595, "vpages-indexed-vertical": 247,
              "vindex-indexed-vertical": 1},
    "visibility": ("a19ae6c6bde32359c80645f6f9468d3c"
                   "01740c9c145df8db993b77bf6cade4cf"),
}


def test_conftest_world_is_pinned(small_env):
    assert fingerprint(small_env) == SMALL_ENV


def test_small_scale_world_is_pinned():
    assert fingerprint(build_world(load_scale("small"))) == SMALL_SCALE
