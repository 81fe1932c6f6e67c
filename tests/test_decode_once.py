"""Decode once: what the serving hot path may and may not do per read.

Count guards, not timings — a pooled page is decoded when it is read
from disk and never again while it stays resident, and no per-entry
``AABB`` is built on the traversal.  Plus the equality that licenses
sharing decoded pages: a pooled search returns exactly what an unpooled
one does, on every scheme and codec.
"""

from collections import Counter

import pytest

import repro.serving.pooled as pooled_module
import repro.storage.vpagecodec as vpagecodec_module
from repro.core.search import HDoVSearch
from repro.errors import SchemeError
from repro.geometry.aabb import AABB
from repro.serving.service import run_serve, session_env
from repro.serving.session import ServingSession
from repro.storage import pageio
from repro.storage.buffer import BufferPool
from repro.storage.vpagecodec import RawVPageCodec


def test_serving_decodes_each_page_once_per_residency(monkeypatch):
    """Over ``run_serve(sessions=8)``: node decodes == pool misses on the
    tree file, V-page decodes == misses on the V-page file, and no AABB
    is constructed while frames are being served."""
    calls = Counter()
    reads = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pooled_module, "decode_node",
                        counted("decode_node", pooled_module.decode_node))
    monkeypatch.setattr(
        vpagecodec_module, "decode_vpage",
        counted("decode_vpage", vpagecodec_module.decode_vpage))
    monkeypatch.setattr(AABB, "__post_init__",
                        counted("aabb", AABB.__post_init__))

    real_read_page = pageio.read_page

    def read_page(pfile, page_id, **kwargs):
        # With a pool and no faults, a physical page read *is* a miss.
        reads[pfile.name] += 1
        return real_read_page(pfile, page_id, **kwargs)

    monkeypatch.setattr(pageio, "read_page", read_page)

    aabbs_at_step = []
    real_step = ServingSession.step

    def step(self, **kwargs):
        aabbs_at_step.append(calls["aabb"])
        try:
            return real_step(self, **kwargs)
        finally:
            aabbs_at_step.append(calls["aabb"])

    monkeypatch.setattr(ServingSession, "step", step)

    report = run_serve(sessions=8, scale="small")

    assert report["outcome"]["completed"]
    scheme = report["serve"]["scheme"]
    tree_misses = reads["tree"]
    vpage_misses = reads[f"vpages-{scheme}"]
    assert tree_misses > 0 and vpage_misses > 0
    assert sum(reads[name] for name in reads if name != "models") \
        == report["pool"]["misses"]
    assert calls["decode_node"] == tree_misses
    assert calls["decode_vpage"] == vpage_misses
    # Far fewer decodes than reads: the pool served the rest decoded.
    assert report["pool"]["hits"] > 10 * report["pool"]["misses"]
    assert len(aabbs_at_step) == 2 * report["outcome"]["frames_served"]
    assert aabbs_at_step[0] == aabbs_at_step[-1]


def _query_plan(env):
    cells = sorted(env.grid.cell_ids(),
                   key=lambda c: -env.visibility.cell(c).num_visible)
    # The busiest cells, visited twice so the second visit is served
    # from decoded payloads, and a fully-hidden cell if there is one.
    plan = cells[:4] + cells[:4] + cells[-1:]
    return [(cell, eta) for cell in plan for eta in (0.0, 0.001, 0.05)]


@pytest.mark.parametrize("fixture, scheme", [
    ("env", "horizontal"),
    ("env", "vertical"),
    ("env", "indexed-vertical"),
    ("env_packed", "vertical"),
    ("env_packed", "indexed-vertical"),
])
def test_pooled_search_result_equals_unpooled(request, fixture, scheme):
    """Whole-``SearchResult`` equality, pooled vs unpooled, per scheme
    and codec — answer set, order, DoVs, blend fractions and tallies."""
    env = request.getfixturevalue(fixture)
    pool = BufferPool(64, name=f"t-{fixture}-{scheme}")
    plain = HDoVSearch(env, scheme)
    pooled = HDoVSearch(session_env(env, pool), scheme)
    for cell, eta in _query_plan(env):
        expected = plain.query_cell(cell, eta)
        assert pooled.query_cell(cell, eta) == expected, (cell, eta)
    assert pool.hits > pool.misses > 0


@pytest.mark.parametrize("scheme_name",
                         ["horizontal", "vertical", "indexed-vertical"])
def test_vpage_of_another_node_is_refused(env, scheme_name):
    """The V-page node-offset check is made per read, unpooled and
    pooled — on a pool hit too, where the decoded page is reused."""
    scheme = env.scheme(scheme_name)
    vfile = scheme.vpage_file
    cell = max(env.grid.cell_ids(),
               key=lambda c: env.visibility.cell(c).num_visible)
    if scheme_name == "horizontal":      # no segment: a formula address
        offset, pointer = 0, scheme._page_id(0, cell)
    else:
        offset, pointer = scheme.cell_pointers(cell)[0]
    original = pageio.read_page(vfile, pointer, component="schemes")
    codec = RawVPageCodec()
    stored, ventries = codec.decode_page(original)
    assert stored == offset
    forged = codec.encode_page(offset + 1, ventries, vfile.page_size)
    pageio.write_page(vfile, pointer, forged, component="schemes")
    try:
        pooled = session_env(env, BufferPool(8, name=f"t-{scheme_name}"))
        for view in (scheme, pooled.scheme(scheme_name)):
            view.flip_to_cell(cell)
            for _attempt in range(2):
                with pytest.raises(SchemeError,
                                   match="node-offset mismatch"):
                    view.ventries(offset)
    finally:
        pageio.write_page(vfile, pointer, original, component="schemes")
    scheme.reset_runtime_state()
    scheme.flip_to_cell(cell)
    assert scheme.ventries(offset) == ventries
