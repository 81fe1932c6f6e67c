"""The built worlds, pinned.

The fanout, fill factor, internal-LoD ratio and levels, street
geometry, object-LoD chain and disk model are constants of the library,
not settings.  These fingerprints were recorded when each was
still a configurable default; a constant that drifts from the default it
replaced moves an object, a polygon, a node, a page or a visibility
entry, and fails here.
"""

from __future__ import annotations

import hashlib

from repro.core.hdov_tree import HDoVEnvironment
from repro.core.search import HDoVSearch
from repro.obs.replay import build_world, cold_queries, load_scale, replay
from repro.serving.scheduler import SessionScheduler
from repro.serving.service import session_env
from repro.serving.session import ServingSession
from repro.storage.buffer import BufferPool
from repro.visibility.dov import visibility_digest
from repro.walkthrough.session import make_session


def built_bytes_digest(env: HDoVEnvironment) -> str:
    """sha256 over what the build made: every file's stored page images
    (with the zero tail a read gives a short payload) and their CRCs,
    then the vertex and face bytes of every object LoD and every
    internal LoD.  Counts can hold while a byte moves; this cannot."""
    digest = hashlib.sha256()
    for pfile in env.files():
        digest.update(f"{pfile.name}:{pfile.num_pages}".encode())
        for page_id in sorted(pfile._mem):
            digest.update(f"{page_id}:{pfile._crcs[page_id]}:".encode())
            digest.update(pfile._mem[page_id].ljust(pfile.page_size,
                                                    b"\0"))
    chains = [obj.lods for obj in env.scene]
    chains += [env.internals[offset].lod.chain
               for offset in sorted(env.internals)]
    for chain in chains:
        for mesh in chain.levels:
            digest.update(mesh.vertices.tobytes())
            digest.update(mesh.faces.tobytes())
    return digest.hexdigest()


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
        "bytes": built_bytes_digest(env),
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
    "bytes": ("5f0251d2a65366f8c880f8ff256b7ea7"
              "337a2cbd9df5495857ced44e0b5842a1"),
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
    "bytes": ("69a54389140a5442c6e74f90bbe702ec"
              "19f3497b564a663d629006c6c342bc03"),
}


def test_conftest_world_is_pinned(small_env):
    assert fingerprint(small_env) == SMALL_ENV


def test_small_scale_world_is_pinned():
    assert fingerprint(build_world(load_scale("small"))) == SMALL_SCALE


def test_the_environment_is_written_once(env):
    """After the build no file of an environment is written: a replay,
    a pooled served round of four sessions and a cold query stream on
    every scheme book no write on either ledger nor in any file's
    ``pagedfile_writes_total`` series."""
    files = env.files()
    written = {f.name: f._m_writes.value for f in files}
    bounds = env.scene.bounds()
    experiment = load_scale("small")
    cells = list(env.grid.cell_ids())[::7]

    def assert_no_write():
        assert env.light_stats.reads > 0
        assert env.light_stats.writes == env.heavy_stats.writes == 0
        assert {f.name: f._m_writes.value for f in files} == written

    for name in sorted(env.schemes):
        replay(experiment, env, make_session(1, bounds, num_frames=12),
               eta=0.001, scheme=name)
        assert_no_write()
        env.reset_stats()
        pool = BufferPool(64, name="written-once")
        SessionScheduler([
            ServingSession(sid, make_session(1 + sid % 3, bounds,
                                             num_frames=8),
                           session_env(env, pool), eta=0.001,
                           scheme=name, pool=pool)
            for sid in range(4)]).run()
        assert_no_write()
        search = HDoVSearch(env, name)
        cold_queries(env, cells,
                     lambda cell, search=search: search.query_cell(cell,
                                                                   0.0))
        assert_no_write()
