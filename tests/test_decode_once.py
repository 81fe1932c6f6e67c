"""Decode once: what the serving hot path may and may not do per read.

Count guards, not timings — a pooled page is decoded when it is read
from disk and never again while it stays resident, and no per-entry
``AABB`` is built on the traversal.  Plus the equality that licenses
sharing decoded pages: a pooled search returns exactly what an unpooled
one does, on every scheme and codec.

Second half, the same for whole answers (DESIGN.md §10 "Query plans"):
a repeated query is replayed from the pool's plan, reading back what was
evicted since — equal to the traversal in its answer, in every pool
counter, in the eviction order and in both I/O ledgers — and a clear of
the pool sends the next query down the traversal again.

Last, the unpooled node store (DESIGN.md §10 "Decoded payloads"): every
read is made and charged, but a page whose stored image comes back as
the very object decoded last time is not decoded again — over a cold
stream, one decode per distinct tree page, with a rewritten page and a
bit flip each decoded afresh.  The packed V-page codec the same way: one
parse per distinct record over a cold stream, equal to a twin that
parses every read, with and without faults on its V-page file.
"""

from collections import Counter
from dataclasses import replace

import pytest

import repro.rtree.persist as persist_module
import repro.serving.pooled as pooled_module
import repro.storage.vpagecodec as vpagecodec_module
from repro.core.search import HDoVSearch
from repro.errors import (PageCorruptError, RTreeError, SchemeError,
                          StorageError)
from repro.geometry.aabb import AABB
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.replay import cold_queries
from repro.rtree.persist import NodeStore
from repro.serving.pooled import PooledNodeStore
from repro.serving.service import run_serve, session_env
from repro.serving.session import ServingSession
from repro.storage import pageio
from repro.storage.buffer import BufferPool
from repro.storage.faults import FaultInjector, FaultPlan, FaultRule
from repro.storage.serializer import encode_node
from repro.storage.vpagecodec import PackedDeltaVPageCodec, RawVPageCodec


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

    real_read_run = pageio.read_run

    def read_run(pfile, first_page, count, **kwargs):
        # With a pool and no faults, a physical page read *is* a miss
        # (a recall reads a run of misses in one call).
        reads[pfile.name] += count
        return real_read_run(pfile, first_page, count, **kwargs)

    monkeypatch.setattr(pageio, "read_run", read_run)

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
    as_written = vfile._mem[pointer]        # the payload as stored
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
        pageio.write_page(vfile, pointer, as_written, component="schemes")
    scheme.reset_runtime_state()
    scheme.flip_to_cell(cell)
    assert scheme.ventries(offset) == ventries
    # The session world's page is back as it was stored, unpadded.
    assert len(vfile._mem[pointer]) == len(as_written) < vfile.page_size


# -- query plans: replay == traversal ----------------------------------------

BUILDS = [("env", "horizontal"), ("env", "vertical"),
          ("env", "indexed-vertical"), ("env_packed", "vertical"),
          ("env_packed", "indexed-vertical")]
ETA = 0.001


def busiest_cells(env, count=2):
    return sorted(env.grid.cell_ids(),
                  key=lambda c: -env.visibility.cell(c).num_visible)[:count]


REAL_GET, REAL_RECALL = BufferPool.get, BufferPool.recall
REAL_REMEMBER = BufferPool.remember


def plan_kind(token):
    """A plan's kind by its token: a flip's decoded index segment is
    remembered under ``(index file id, cell)``, a query's answer under
    ``(tree file id, V-page file id, cell, eta, eq.-4 switch)``."""
    return "segment" if len(token) == 2 else "search"


class PoolSpy:
    """Counts ``BufferPool.get`` calls, what ``recall`` answered and the
    pages its recalls read, from outside, per plan kind; ``replaying=
    False`` makes ``recall`` answer nothing — the twin every replaying
    run is compared with.  The latest spy of a test is the one
    installed."""

    def __init__(self, monkeypatch, replaying=True):
        self.gets = 0
        self.replays = Counter()        # kind -> recalls answered
        self.recall_reads = Counter()   # kind -> pages those recalls read
        #: kind -> (token, keys) of every remember
        self.remembered = {"search": [], "segment": []}
        real_get, real_recall = REAL_GET, REAL_RECALL
        real_remember = REAL_REMEMBER

        def get(pool, *args, **kwargs):
            self.gets += 1
            return real_get(pool, *args, **kwargs)

        def recall(pool, token, files):
            recalled = real_recall(pool, token, files) if replaying else None
            if recalled is not None:
                self.replays[plan_kind(token)] += 1
                self.recall_reads[plan_kind(token)] += recalled[1]
            return recalled

        def remember(pool, token, keys, answer):
            self.remembered[plan_kind(token)].append((token, list(keys)))
            return real_remember(pool, token, keys, answer)

        monkeypatch.setattr(BufferPool, "get", get)
        monkeypatch.setattr(BufferPool, "recall", recall)
        monkeypatch.setattr(BufferPool, "remember", remember)


def serve_aba(env, scheme, capacity, spy, *, views=1):
    """Query cells A, B, A (the last from a second session view when
    ``views`` is 2) through one pool; everything an observer can see."""
    env.reset_runtime_state()       # cold: two runs charge alike
    pool = BufferPool(capacity, name=f"aba-{scheme}-{capacity}")
    searches = [HDoVSearch(session_env(env, pool), scheme,
                           fetch_models=False) for _ in range(views)]
    a, b = busiest_cells(env)
    steps = []
    for search, cell in ((searches[0], a), (searches[0], b),
                         (searches[-1], a)):
        gets, hits, misses = spy.gets, pool.hits, pool.misses
        result = search.query_cell(cell, ETA)
        steps.append({"result": result, "gets": spy.gets - gets,
                      "hits": pool.hits - hits,
                      "misses": pool.misses - misses})
    return {"steps": steps, "pool": pool.stats(),
            "order": pool.policy.keys(), "resident": pool.resident_pages,
            "light": env.light_stats.snapshot(),
            "heavy": env.heavy_stats.snapshot()}


@pytest.mark.parametrize("views", [1, 2])
@pytest.mark.parametrize("fixture, scheme", BUILDS)
def test_replayed_query_equals_the_traversal(request, monkeypatch, fixture,
                                             scheme, views):
    env = request.getfixturevalue(fixture)
    packed = fixture == "env_packed"
    a, b = busiest_cells(env)
    plain = HDoVSearch(env, scheme, fetch_models=False)
    env.reset_runtime_state()
    expected = plain.query_cell(a, ETA)

    twin = serve_aba(env, scheme, 4096, PoolSpy(monkeypatch, False),
                     views=views)
    spy = PoolSpy(monkeypatch)
    seen = serve_aba(env, scheme, 4096, spy, views=views)

    first, _second, third = (step["result"] for step in seen["steps"])
    assert third == first == expected
    assert third is not first
    assert third.objects is not first.objects
    assert third.internals is not first.internals

    # Every counter, the order and both ledgers: the twin's.
    for step, twin_step in zip(seen["steps"], twin["steps"]):
        assert step["result"] == twin_step["result"]
        assert (step["hits"], step["misses"]) == \
            (twin_step["hits"], twin_step["misses"])
    for field in ("pool", "order", "resident", "light", "heavy"):
        assert seen[field] == twin[field], field

    # Count guard.  The repeated flip is one segment recall (the
    # horizontal scheme has no segment): cells A and B were remembered,
    # A is recalled and its index pages are no get.  Raw: the repeated
    # query is one recall too, so it makes no get at all.  Packed: the
    # view's read cache decides which pages a V-page read touches, so
    # it is traversed — the twin's gets but the index pages (fewer than
    # the first visit's: the read cache is warm).
    scheme_view = env.scheme(scheme)
    segmented = scheme != "horizontal"
    index_pages = scheme_view._segment_span(a)[1] if segmented else 0
    assert spy.replays["segment"] == int(segmented)
    assert [token[1] for token, _keys in spy.remembered["segment"]] == \
        ([a, b] if segmented else [])
    if packed:
        assert spy.replays["search"] == 0 and spy.remembered["search"] == []
        assert seen["steps"][2]["gets"] == \
            twin["steps"][2]["gets"] - index_pages > 0
    else:
        assert spy.replays["search"] == 1
        assert seen["steps"][2]["gets"] == 0
        assert twin["steps"][2]["gets"] > index_pages + 2


@pytest.mark.parametrize("fixture, scheme", BUILDS[:3])
def test_replays_at_a_pool_one_frame_too_small_and_equals_the_twin(
        request, monkeypatch, fixture, scheme):
    """One frame fewer than cells A and B need: reading B evicts, and
    A's plan — kept until a clear, not until an eviction — is recalled,
    reading back what it lacks.  Equal to the twin that traverses:
    results, per-step hits and misses, pool stats, order and both
    ledgers."""
    env = request.getfixturevalue(fixture)
    needed = serve_aba(env, scheme, 4096,
                       PoolSpy(monkeypatch, False))["resident"]
    twin = serve_aba(env, scheme, needed - 1, PoolSpy(monkeypatch, False))
    spy = PoolSpy(monkeypatch)
    tight = serve_aba(env, scheme, needed - 1, spy)
    assert spy.replays["search"] == 1 and spy.recall_reads["search"] > 0
    assert spy.replays["segment"] == (scheme != "horizontal")
    assert tight["pool"]["evictions"] > 0
    for step, twin_step in zip(tight["steps"], twin["steps"]):
        assert step["result"] == twin_step["result"]
        assert (step["hits"], step["misses"]) == \
            (twin_step["hits"], twin_step["misses"])
    for field in ("pool", "order", "resident", "light", "heavy"):
        assert tight[field] == twin[field], field


def same_answer(result, first):
    """Whole-result equality but for ``flipped``, which says whether the
    view stood in another cell before — not what was answered."""
    return replace(result, flipped=first.flipped) == first


def planned(env, scheme, monkeypatch, capacity=4096):
    """A pooled search that has just remembered cell A's plan."""
    env.reset_runtime_state()       # cold: two runs charge alike
    spy = PoolSpy(monkeypatch)
    pool = BufferPool(capacity, name=f"plan-{scheme}")
    view = session_env(env, pool)
    search = HDoVSearch(view, scheme, fetch_models=False)
    a = busiest_cells(env)[0]
    first = search.query_cell(a, ETA)
    (_token, keys), = spy.remembered["search"]
    assert len(keys) == first.nodes_read + first.vpages_read
    return spy, pool, view, search, a, first, keys


def test_a_clear_invalidates_the_plan(env, monkeypatch):
    spy, pool, _view, search, a, first, keys = planned(
        env, "indexed-vertical", monkeypatch)
    pool.clear()
    gets = spy.gets
    assert same_answer(search.query_cell(a, ETA), first)
    assert spy.replays == {} and spy.gets - gets >= len(keys)


def test_a_degraded_answer_is_never_remembered(env, monkeypatch):
    """V-page reads that come back corrupt degrade the traversal; that
    answer must not be handed to the next query, the clean one must."""
    scheme = "indexed-vertical"
    env.reset_runtime_state()       # cold: two runs charge alike
    spy = PoolSpy(monkeypatch)
    pool = BufferPool(4096, name="plan-degraded")
    search = HDoVSearch(session_env(env, pool), scheme, fetch_models=False)
    a = busiest_cells(env)[0]
    injector = FaultInjector(FaultPlan("rot", (
        FaultRule("bit-flip", match=f"vpages-{scheme}", rate=1.0),)), seed=0)
    injector.install(env.scheme(scheme).vpage_file)
    try:
        degraded = search.query_cell(a, ETA)
    finally:
        injector.uninstall()
    # The flip read a clean index segment: that is remembered.
    assert degraded.degraded > 0 and spy.remembered["search"] == []
    assert len(spy.remembered["segment"]) == 1
    clean = search.query_cell(a, ETA)
    assert clean.degraded == 0 and spy.replays == {}
    assert len(spy.remembered["search"]) == 1
    assert search.query_cell(a, ETA) == clean
    assert spy.replays == {"search": 1}
    assert len(spy.remembered["segment"]) == 1


def test_fetching_searches_and_split_pools_always_traverse(env, monkeypatch):
    """Model fetches are not pool hits, and an answer read through two
    pools is no one pool's to vouch for."""
    scheme = "indexed-vertical"
    spy, pool, view, _search, a, first, keys = planned(
        env, scheme, monkeypatch)
    fetching = HDoVSearch(view, scheme, fetch_models=True)
    split = HDoVSearch(replace(view, node_store=PooledNodeStore(
        env.node_store, BufferPool(64, name="other"))), scheme,
        fetch_models=False)
    for search in (fetching, split, fetching, split):
        gets = spy.gets
        remembered = {kind: len(plans)
                      for kind, plans in spy.remembered.items()}
        assert same_answer(search.query_cell(a, ETA), first)
        assert spy.replays == {}
        assert {kind: len(plans) for kind, plans
                in spy.remembered.items()} == remembered
        assert spy.gets - gets >= len(keys)


# -- the unpooled node store: one decode per stored image --------------------

COLD_ETAS = (0.0, 0.001, 0.05)


def cold_stream(env):
    """Every cell at three η, each answered from cold, as Figure 7's
    random-viewpoint stream is."""
    return [(cell, eta) for cell in env.grid.cell_ids() for eta in COLD_ETAS]


def answer_cold(env, scheme):
    """The stream through ``cold_queries``: answers, both ledgers and
    every registry series, counted from zero."""
    search = HDoVSearch(env, scheme)
    with use_registry(MetricsRegistry()) as registry:
        stream = cold_queries(env, cold_stream(env),
                              lambda query: search.query_cell(*query))
    return (stream.answers, stream.light.to_dict(), stream.heavy.to_dict(),
            registry.collect())


def fresh_store(monkeypatch, env):
    """A new store over ``env``'s tree file, installed for the test: it
    has decoded nothing, whatever the shared environment read before."""
    shared = env.node_store
    store = NodeStore(shared.pfile)
    store.root_page = shared.root_page
    store.num_nodes = shared.num_nodes
    store.offset_to_page = shared.offset_to_page
    monkeypatch.setattr(env, "node_store", store)
    return store


@pytest.mark.parametrize("fixture, scheme", BUILDS)
def test_unpooled_store_decodes_each_tree_page_once(request, monkeypatch,
                                                     fixture, scheme):
    """Count guard: over a cold stream, ``decode_node`` runs once per
    distinct tree page read, however often each page is read."""
    env = request.getfixturevalue(fixture)
    store = fresh_store(monkeypatch, env)
    decodes = Counter()
    pages = Counter()
    real_decode, real_read_page = persist_module.decode_node, \
        pageio.read_page

    def decode_node(data):
        decodes["calls"] += 1
        return real_decode(data)

    def read_page(pfile, page_id, **kwargs):
        if pfile is store.pfile:
            pages[page_id] += 1
        return real_read_page(pfile, page_id, **kwargs)

    monkeypatch.setattr(persist_module, "decode_node", decode_node)
    monkeypatch.setattr(pageio, "read_page", read_page)
    answer_cold(env, scheme)
    assert decodes["calls"] == len(pages) > 0
    # Every read is still made: the stream reads each page many times.
    assert sum(pages.values()) > 2 * len(pages)


@pytest.mark.parametrize("fixture, scheme", BUILDS)
def test_unpooled_store_equals_its_twin_that_decodes_every_read(
        request, monkeypatch, fixture, scheme):
    """Whole results, both I/O ledgers and every registry series the
    stream moves: the same with the memo as with a store whose memo is
    emptied before every read."""
    env = request.getfixturevalue(fixture)
    fresh_store(monkeypatch, env)
    env.reset_stats()
    memoised = answer_cold(env, scheme)
    real_read_node = NodeStore.read_node

    def read_node(store, node_offset):
        store._decoded.clear()
        return real_read_node(store, node_offset)

    monkeypatch.setattr(NodeStore, "read_node", read_node)
    env.reset_stats()
    twin = answer_cold(env, scheme)
    assert memoised[0] == twin[0]
    assert memoised[1:] == twin[1:]


def reordered_page(store, node):
    """``node``'s page with its entries in reverse order: a valid page
    holding the same node offset, told apart by ``targets``."""
    entries = [(AABB(node.mbrs[i, :3], node.mbrs[i, 3:]), node.targets[i],
                node.lod_ptrs[i])
               for i in reversed(range(len(node.targets)))]
    return encode_node(node.kind, node.level, node.node_offset, entries,
                       store.pfile.page_size)


def test_a_rewritten_tree_page_is_decoded_again(env, monkeypatch):
    store = fresh_store(monkeypatch, env)
    decodes = Counter()
    real_decode = persist_module.decode_node

    def decode_node(data):
        decodes["calls"] += 1
        return real_decode(data)

    monkeypatch.setattr(persist_module, "decode_node", decode_node)
    root = store.read_node(0)
    assert len(root.targets) > 1
    assert store.read_node(0).targets == root.targets
    assert decodes["calls"] == 1
    page_id = store.page_of(0)
    as_written = store.pfile._mem[page_id]  # the payload as stored
    pageio.write_page(store.pfile, page_id, reordered_page(store, root),
                      component="rtree")
    try:
        rewritten = store.read_node(0)
        assert rewritten.targets == root.targets[::-1]
        assert store.read_node(0).targets == rewritten.targets
        assert decodes["calls"] == 2
    finally:
        pageio.write_page(store.pfile, page_id, as_written,
                          component="rtree")
    assert store.read_node(0).targets == root.targets
    assert decodes["calls"] == 3
    # The session world's page is back as it was stored, unpadded.
    assert len(store.pfile._mem[page_id]) == len(as_written) \
        < store.pfile.page_size


def test_a_memo_hit_still_checks_the_node_offset(env, monkeypatch):
    """The memo keeps the node a page held; a read that reaches that
    page for another offset is refused, warm memo or not."""
    store = fresh_store(monkeypatch, env)
    root = store.read_node(0)
    assert store.read_node(0) is root
    store.offset_to_page = dict(store.offset_to_page)
    store.offset_to_page[1] = store.page_of(0)
    with pytest.raises(RTreeError, match="page says 0, asked for 1"):
        store.read_node(1)
    assert store.read_node(0) is root


def test_a_bit_flip_on_the_tree_file_is_never_hidden_by_the_memo(env):
    """With a warm memo and a bit-flip rule on the tree file, every read
    the rule hits raises; every other read is the clean node."""
    store = env.node_store
    offsets = range(min(store.num_nodes, 8))
    clean = {offset: store.read_node(offset).targets for offset in offsets}
    injector = FaultInjector(FaultPlan("rot", (
        FaultRule("bit-flip", match="tree", rate=0.5),)), seed=3)
    injector.install(store.pfile)
    raised = 0
    try:
        for _round in range(4):
            for offset in offsets:
                try:
                    node = store.read_node(offset)
                except PageCorruptError:
                    raised += 1
                else:
                    assert node.targets == clean[offset]
    finally:
        injector.uninstall()
    assert raised == injector.injected["bit-flip"] > 0
    for offset in offsets:
        assert store.read_node(offset).targets == clean[offset]


# -- the packed codec: one parse per stored record ----------------------------

PACKED = ("vertical", "indexed-vertical")


def fresh_memo(monkeypatch, env, scheme):
    """An empty record memo on ``scheme``'s codec for the test, whatever
    the shared environment parsed before."""
    monkeypatch.setattr(env.scheme(scheme).codec, "_decoded", {})


def twin_reads(monkeypatch):
    """Make every packed read parse: the memo is emptied first."""
    real_read = PackedDeltaVPageCodec.read

    def read(codec, pointer, reader):
        codec._decoded.clear()
        return real_read(codec, pointer, reader)

    monkeypatch.setattr(PackedDeltaVPageCodec, "read", read)


@pytest.mark.parametrize("scheme", PACKED)
def test_packed_codec_parses_each_record_once(env_packed, monkeypatch,
                                              scheme):
    """Count guard: over a cold stream, ``_read_record`` parses once per
    distinct pointer read, however often each record is read."""
    fresh_memo(monkeypatch, env_packed, scheme)
    parses = Counter()
    reads = Counter()
    real_parse = PackedDeltaVPageCodec._read_record
    real_read = PackedDeltaVPageCodec.read

    def _read_record(codec, pointer, reader, *, depth):
        if depth == 0:
            parses[pointer] += 1
        return real_parse(codec, pointer, reader, depth=depth)

    def read(codec, pointer, reader):
        reads[pointer] += 1
        return real_read(codec, pointer, reader)

    monkeypatch.setattr(PackedDeltaVPageCodec, "_read_record", _read_record)
    monkeypatch.setattr(PackedDeltaVPageCodec, "read", read)
    answer_cold(env_packed, scheme)
    assert sum(parses.values()) == len(reads) > 0
    # Every read is still made: the stream reads each record many times.
    assert sum(reads.values()) > 2 * len(reads)


@pytest.mark.parametrize("scheme", PACKED)
def test_packed_codec_equals_its_twin_that_parses_every_read(
        env_packed, monkeypatch, scheme):
    """Whole results, both I/O ledgers and every registry series the
    stream moves: the same with the memo as with a codec whose memo is
    emptied before every read."""
    fresh_memo(monkeypatch, env_packed, scheme)
    env_packed.reset_stats()
    memoised = answer_cold(env_packed, scheme)
    twin_reads(monkeypatch)
    env_packed.reset_stats()
    twin = answer_cold(env_packed, scheme)
    assert memoised[0] == twin[0]
    assert memoised[1:] == twin[1:]


PACKED_READ = PackedDeltaVPageCodec.read
PACKED_FAULTS = (
    FaultPlan("rot", (FaultRule("bit-flip", rate=0.05),)),
    FaultPlan("flaky", (FaultRule("read-error", rate=0.3),)),
)


def faulted_stream(env, scheme_name, plan, monkeypatch, *, twin):
    """The cold stream with ``plan`` on the scheme's V-page file only,
    and every codec read's outcome in order: ``(pointer, answer)`` or
    ``(pointer, error type, message)``.  ``twin``: every read parses."""
    reads = []
    real_read = PACKED_READ

    def read(codec, pointer, reader):
        if twin:
            codec._decoded.clear()
        try:
            answer = real_read(codec, pointer, reader)
        except StorageError as exc:
            reads.append((pointer, type(exc).__name__, str(exc)))
            raise
        reads.append((pointer, answer))
        return answer

    monkeypatch.setattr(PackedDeltaVPageCodec, "read", read)
    injector = FaultInjector(plan, seed=11)
    injector.install(env.scheme(scheme_name).vpage_file)
    try:
        env.reset_stats()
        stream = answer_cold(env, scheme_name)
    finally:
        injector.uninstall()
    return reads, stream, dict(injector.injected)


@pytest.mark.parametrize("plan", PACKED_FAULTS, ids=lambda p: p.name)
@pytest.mark.parametrize("scheme", PACKED)
def test_packed_codec_under_faults_equals_its_twin(env_packed, monkeypatch,
                                                   scheme, plan):
    """With a bit-flip or a transient-error plan on the packed V-page
    file, over a warm memo: the same outcome read for read — errors,
    answers, degraded subtrees, both ledgers and every registry series —
    as the twin that parses every read."""
    fresh_memo(monkeypatch, env_packed, scheme)
    answer_cold(env_packed, scheme)
    memoised = faulted_stream(env_packed, scheme, plan, monkeypatch,
                              twin=False)
    twin = faulted_stream(env_packed, scheme, plan, monkeypatch, twin=True)
    assert memoised[2] == twin[2] and sum(twin[2].values()) > 0
    assert memoised[0] == twin[0]
    assert any(len(outcome) == 3 for outcome in twin[0])
    assert memoised[1] == twin[1]
    assert sum(result.degraded for result in twin[1][0]) > 0
