"""``ResidentModels`` against a list-based reference model.

VISUAL's delta search, REVIEW's complement search and the LoD-R-tree's
are one mechanism — hold ``key -> (fraction, bytes)``, skip what is held
at sufficient detail, fetch and charge the rest — so it is checked once,
against a model that copies nothing cleverly: a plain list, linear
scans.  Random ``want`` / ``drop`` / ``keep_only`` / ``clear`` sequences
must give the same fetched-or-skipped verdict, the same iteration order
and the same byte total, step by step, with one ``fetch_prefix`` per
fetch (naming the prefix already held) and none per skip, and one
``release`` per representation let go.

A set reads through a ``SharedModels`` table — its viewer's own, or
under a pool the one its server's sessions share (the fakes below stand
in for it): a second model runs several sets over one table and a real
object store, and holds the table to the per-blob maximum over the live
sets and every read to exactly the pages nobody held.  Served sessions
of one pool share its table for real, and leave it empty once each has
let go of its models.

The last test pins the mechanism to its one place in the tree.
"""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.delta import ResidentModels
from repro.experiments.config import get_scale
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.replay import build_world, session_path
from repro.serving import ServingSession, SessionScheduler
from repro.serving.service import session_env
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.objectstore import ObjectStore, SharedModels
from repro.storage.pagedfile import PagedFile

KEYS = st.integers(min_value=0, max_value=7)
OPS = st.lists(st.one_of(
    st.tuples(st.just("want"), KEYS,
              st.sampled_from([0.0, 0.25, 0.5, 1.0]),
              st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("drop"), KEYS),
    st.tuples(st.just("keep_only"), st.frozensets(KEYS)),
    st.tuples(st.just("clear"))), max_size=60)


class ListModel:
    """What ``ResidentModels`` holds: ``(key, fraction, bytes)`` entries,
    least recently wanted first."""

    def __init__(self):
        self.held = []

    def get(self, key):
        return next((e for e in self.held if e[0] == key), None)

    def want(self, key, fraction, nbytes):
        old = self.get(key)
        fetched = old is None or old[1] < fraction
        if old is not None:
            self.held.remove(old)
        self.held.append((key, fraction, nbytes) if fetched else old)
        return fetched

    def keep_only(self, keys):
        self.held = [e for e in self.held if e[0] in keys]


class RecordingStore:
    def __init__(self):
        self.calls = []

    def fetch_prefix(self, blob_id, nbytes, held_bytes=None):
        self.calls.append(("fetch", blob_id, nbytes, held_bytes))

    def release(self, blob_id, nbytes):
        self.calls.append(("release", blob_id, nbytes))


class FailingStore(RecordingStore):
    def fetch_prefix(self, blob_id, nbytes, held_bytes=None):
        raise OSError("unreadable")


@pytest.mark.parametrize("fetching", [True, False])
@given(ops=OPS)
@settings(max_examples=200, deadline=None)
def test_resident_models_match_the_list_model(fetching, ops):
    store = RecordingStore() if fetching else None
    real, model = ResidentModels(store), ListModel()
    expected_calls, fetches, skipped = [], 0, 0

    def let_go(keys):
        expected_calls.extend(("release", e[0] + 100, e[2])
                              for e in model.held if e[0] in keys)

    for op, *args in ops:
        if op == "want":
            key, fraction, nbytes = args
            old = model.get(key)
            fetched = model.want(key, fraction, nbytes)
            assert real.want(key, key + 100, fraction, nbytes) == fetched
            fetches += fetched
            skipped += not fetched
            if fetched:
                expected_calls.append(
                    ("fetch", key + 100, nbytes,
                     None if old is None else old[2]))
        elif op == "drop":
            if args[0] not in real:
                continue
            let_go({args[0]})
            real.drop(args[0])
            model.keep_only({e[0] for e in model.held} - {args[0]})
        elif op == "keep_only":
            let_go({e[0] for e in model.held} - args[0])
            real.keep_only(args[0])
            model.keep_only(args[0])
        else:
            let_go({e[0] for e in model.held})
            real.clear()
            model.keep_only(())
        assert [(k, *real[k]) for k in real] == model.held
        assert len(real) == len(model.held)
        assert real.bytes == sum(e[2] for e in model.held)
        assert (real.fetches, real.skipped) == (fetches, skipped)
        if store is not None:
            assert store.calls == expected_calls


def test_a_failed_fetch_leaves_the_set_as_it_was():
    real = ResidentModels(RecordingStore())
    real.want(1, 101, 0.5, 40)
    real._store = FailingStore()
    with pytest.raises(OSError):
        real.want(1, 101, 1.0, 80)
    assert [(k, *real[k]) for k in real] == [(1, 0.5, 40)]
    assert (real.bytes, real.fetches) == (40, 1)


# -- one table, several sets ---------------------------------------------------

PAGE = 64
BLOB = 1000                         # bytes: 16 pages of 64
SETS = st.integers(min_value=0, max_value=3)
SHARED_OPS = st.lists(st.one_of(
    st.tuples(st.just("want"), SETS, KEYS,
              st.sampled_from([0.0, 0.25, 0.5, 1.0]),
              st.integers(min_value=0, max_value=BLOB)),
    st.tuples(st.just("drop"), SETS, KEYS),
    st.tuples(st.just("keep_only"), SETS, st.frozensets(KEYS)),
    st.tuples(st.just("clear"), SETS)), max_size=60)


def pages(nbytes):
    """Pages a prefix of ``nbytes`` covers in a ``BLOB``-byte blob."""
    return min(max(math.ceil(min(nbytes, BLOB) / PAGE), 1),
               math.ceil(BLOB / PAGE))


def shared_world(sets=4):
    pfile = PagedFile("models", page_size=PAGE, disk=DiskModel(),
                      stats=IOStats())
    store = ObjectStore(pfile)
    for _ in range(8):
        store.put(BLOB)
    table = store.shared_by(BufferPool(4))
    return store, table, [ResidentModels(table) for _ in range(sets)]


def per_blob_max(sets):
    held = {}
    for resident in sets:
        for key in resident:
            held[key] = max(held.get(key, 0), resident[key][1])
    return held


@given(ops=SHARED_OPS)
@settings(max_examples=200, deadline=None)
def test_sets_sharing_a_table_read_only_what_nobody_holds(ops):
    """Key ``k`` is blob ``k`` in every set.  After every step the table
    is the per-blob maximum over the live sets (so never more than their
    sum), and a fetch read exactly ``pages(wanted) - max(own, server)``
    pages, clipped at 0."""
    store, table, sets = shared_world()
    for op, index, *args in ops:
        resident = sets[index]
        reads, lacking = store.pfile.stats.reads, 0
        if op == "want":
            key, fraction, nbytes = args
            own = resident[key][1] if key in resident else None
            server = table.held_bytes(key)
            if resident.want(key, key, fraction, nbytes):
                held = max((pages(b) for b in (own, server) if b is not None),
                           default=0)
                lacking = max(pages(nbytes) - held, 0)
        elif op == "drop":
            if args[0] in resident:
                resident.drop(args[0])
        elif op == "keep_only":
            resident.keep_only(args[0])
        else:
            resident.clear()
        assert store.pfile.stats.reads - reads == lacking
        assert {b: table.held_bytes(b) for b in table} == per_blob_max(sets)
        assert sum(table.held_bytes(b) for b in table) \
            <= sum(r.bytes for r in sets)
    for resident in sets:
        resident.clear()
    assert len(table) == 0


def test_a_failed_shared_fetch_leaves_the_set_and_the_table_as_they_were():
    store, table, (first, second) = shared_world(sets=2)
    first.want(1, 1, 0.5, 300)
    second.want(1, 1, 0.25, 100)
    table.store = FailingStore()
    with pytest.raises(OSError):
        second.want(1, 1, 1.0, 900)
    assert [(k, *second[k]) for k in second] == [(1, 0.25, 100)]
    assert (second.bytes, second.fetches) == (100, 1)
    assert table.held_bytes(1) == 300
    table.store = store
    first.clear()
    assert table.held_bytes(1) == 100
    second.clear()
    assert len(table) == 0


def test_a_table_is_per_server():
    store = ObjectStore(PagedFile("models", page_size=PAGE, stats=IOStats()))
    server, other = BufferPool(4), BufferPool(4)
    assert store.shared_by(server) is store.shared_by(server)
    assert store.shared_by(server) is not store.shared_by(other)
    assert isinstance(store.shared_by(server), SharedModels)


def test_heavy_holds_leave_with_closed_sessions():
    """The shared model table counts live holds only: served sessions of
    one pool fill it, and once each session drops its holds
    (``DeltaSearch.clear``, what closing a session does) it holds
    nothing."""
    experiment = get_scale("small")
    with use_registry(MetricsRegistry()):
        env = build_world(experiment)
        pool = BufferPool(256, name="heavy-leave")
        sessions = [
            ServingSession(i, session_path(experiment, env, pattern, 8),
                           session_env(env, pool), eta=0.001, pool=pool,
                           evaluate_fidelity=False)
            for i, pattern in enumerate((1, 2, 3))]
        SessionScheduler(sessions).run()
    table = env.object_store.shared_by(pool)
    assert len(table) > 0
    for session in sessions:
        session.delta.clear()
    assert len(table) == 0


def test_walkthrough_models_are_fetched_in_one_place():
    """Outside the storage layer and the cold point-query paths, one
    function in ``src/repro`` calls ``fetch_prefix``."""
    root = Path(repro.__file__).parent
    cold = {"core/search.py", "baselines/naive.py"}
    sites = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name.startswith("storage/") or name in cold:
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sites += [(name, func.name) for node in ast.walk(func)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "fetch_prefix"]
    assert sites == [("core/delta.py", "want")]
