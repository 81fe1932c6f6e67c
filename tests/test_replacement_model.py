"""Replacement policies against list-based reference models.

``victims()`` iterates the policy's own order in place (the pool takes
its first key and abandons the iterator), so the orders are checked
here against models that copy nothing cleverly: plain lists, linear
scans.  Random ``get`` / ``clear`` sequences must produce the same
eviction sequence, victim order, resident order, ghost hits and
promotions, step by step.

The second model is of ``remember`` / ``recall``: a recalled plan must
be, to every counter and to the replacement order, the ``get`` calls it
stands for, and must be gone after anything that could have removed a
frame it was recorded over.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.disk import FREE_DISK, IOStats
from repro.storage.pagedfile import PagedFile
from repro.storage.replacement import LRUPolicy, TwoQPolicy

PAGES = 12


class LRUModel:
    def __init__(self, capacity):
        self.order = []

    def insert(self, key):
        self.order.append(key)

    def access(self, key):
        self.order.remove(key)
        self.order.append(key)

    def candidates(self):
        return list(self.order)

    def evict(self, key):
        self.order.remove(key)

    def clear(self):
        self.order = []

    def stats(self):
        return {}


class TwoQModel:
    def __init__(self, capacity):
        self.kin = max(1, int(capacity * 0.25))
        self.kout = max(1, int(capacity * 0.5))
        self.a1in, self.am, self.ghosts = [], [], []
        self.ghost_hits = self.promotions = 0

    def insert(self, key):
        if key in self.ghosts:
            self.ghosts.remove(key)
            self.ghost_hits += 1
            self.promotions += 1
            self.am.append(key)
        else:
            self.a1in.append(key)

    def access(self, key):
        if key in self.am:
            self.am.remove(key)
            self.am.append(key)

    def candidates(self):
        if len(self.a1in) > self.kin or not self.am:
            return self.a1in + self.am
        return self.am + self.a1in

    def evict(self, key):
        if key in self.a1in:
            self.a1in.remove(key)
            self.ghosts.append(key)
            del self.ghosts[:max(0, len(self.ghosts) - self.kout)]
        else:
            self.am.remove(key)

    def clear(self):
        self.a1in, self.am, self.ghosts = [], [], []

    @property
    def order(self):
        return self.a1in + self.am

    def stats(self):
        return {"ghost_hits": self.ghost_hits,
                "promotions": self.promotions}


class ModelPool:
    """What ``BufferPool`` does single-threaded, with lists."""

    def __init__(self, policy, capacity):
        self.policy = policy
        self.capacity = capacity
        self.evicted = []

    def get(self, key):
        if key in self.policy.order:
            self.policy.access(key)
            return
        if len(self.policy.order) >= self.capacity:
            victim = self.policy.candidates()[0]
            self.policy.evict(victim)
            self.evicted.append(victim)
        self.policy.insert(key)


class Recording:
    """Mixin: remember the pool's evictions in order."""

    def on_evict(self, key):
        self.evicted.append(key)
        super().on_evict(key)


class RecordingLRU(Recording, LRUPolicy):
    def __init__(self, capacity):
        super().__init__()
        self.evicted = []


class RecordingTwoQ(Recording, TwoQPolicy):
    def __init__(self, capacity):
        super().__init__(capacity, pool_name="model")
        self.evicted = []


POLICIES = {"lru": (RecordingLRU, LRUModel), "2q": (RecordingTwoQ, TwoQModel)}


def make_file(pages=PAGES):
    pf = PagedFile("model", page_size=64, disk=FREE_DISK, stats=IOStats())
    for i in range(pages):
        pf.append_page(bytes([i % 251]) * 8)
    return pf


OPS = st.lists(st.tuples(
    st.sampled_from(["get"] * 15 + ["clear"]),
    st.integers(0, PAGES - 1)), max_size=120)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 6), ops=OPS)
def test_pool_evicts_exactly_as_the_list_model(policy_name, capacity, ops):
    real_cls, model_cls = POLICIES[policy_name]
    pfile = make_file()
    policy = real_cls(capacity)
    pool = BufferPool(capacity, policy=policy, name=f"model-{policy_name}")
    model = ModelPool(model_cls(capacity), capacity)
    fid = pfile.file_id
    for step, (op, page) in enumerate(ops):
        where = (step, op, page)
        if op == "clear":
            model.policy.clear()
            pool.clear()
        else:
            model.get((fid, page))
            assert pool.get(pfile, page)[:8] == bytes([page]) * 8, where
        assert policy.evicted == model.evicted, where
        assert policy.keys() == model.policy.order, where
        assert list(policy.victims()) == model.policy.candidates(), where
        assert policy.stats() == model.policy.stats(), where
        assert pool.evictions == len(model.evicted), where
        assert pool.resident_pages == len(model.policy.order) <= capacity, \
            where


# -- remember / recall -----------------------------------------------------

#: Pages past ``PAGES`` that no op touches: reading them afterwards
#: evicts whatever the two pools would evict next, in order.
FRESH = 50

#: Few distinct page lists, so that a query often meets its own plan.
QUERIES = [[0, 1, 2], [2, 3], [4, 0, 4, 5], [6], [1, 7, 3, 8, 2]]

PLAN_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["get", "get", "get", "clear"]),
              st.integers(0, PAGES - 1)),
    st.tuples(st.just("query"), st.sampled_from(QUERIES)),
    st.tuples(st.just("query"), st.sampled_from(QUERIES))),
    max_size=80)


def pool_state(pool):
    return (pool.hits, pool.misses, pool.evictions,
            pool.policy.keys(), pool.policy.stats(), pool.policy.evicted)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 8), ops=PLAN_OPS)
def test_recall_is_the_gets_it_stands_for(policy_name, capacity, ops):
    """Two pools get the same ops.  A ``query`` reads a page list: the
    twin always issues the ``get`` calls; the planning pool recalls the
    list's plan if it holds one and otherwise reads and remembers.  The
    pools must agree on every counter, the resident order and the 2Q
    tallies after every step and on the next ``FRESH`` victims at the
    end — and the plan must be held exactly when the model says so."""
    real_cls, _model = POLICIES[policy_name]
    pfile = make_file(PAGES + FRESH)
    fid = pfile.file_id
    planner = BufferPool(capacity, policy=real_cls(capacity),
                         name=f"plan-{policy_name}")
    twin = BufferPool(capacity, policy=real_cls(capacity),
                      name=f"twin-{policy_name}")
    live = set()                # tokens the model says are recallable
    for step, (op, arg) in enumerate(ops):
        where = (step, op, arg)
        evictions = planner.evictions
        if op == "query":
            token = tuple(arg)
            keys = [(fid, page) for page in arg]
            read = tuple(twin.get(pfile, page) for page in arg)
            answer = planner.recall(token)
            assert (answer is not None) == (token in live), where
            if answer is None:
                generation = planner.generation
                data = tuple(planner.get(pfile, page) for page in arg)
                planner.remember(token, generation, keys, data)
                # Stale when reading the list itself evicted; refused
                # beyond ``capacity`` plans.
                if (planner.evictions == evictions
                        and len(live) < capacity):
                    live.add(token)
            else:
                event("replayed")
                assert answer == read, where
        else:
            for pool in (planner, twin):
                if op == "get":
                    pool.get(pfile, arg)
                else:
                    pool.clear()
        if op == "clear" or planner.evictions != evictions:
            live.clear()
        assert pool_state(planner) == pool_state(twin), where
    for page in range(PAGES, PAGES + FRESH):
        planner.get(pfile, page)
        twin.get(pfile, page)
    assert pool_state(planner) == pool_state(twin)
    for token in live:                  # FRESH > capacity: all evicted
        assert planner.recall(token) is None


def plan_pool(capacity=8):
    pfile = make_file()
    pool = BufferPool(capacity, name="plan", policy="lru")
    return pfile, pool, [(pfile.file_id, page) for page in range(3)]


def read_and_remember(pool, pfile, keys, token="t"):
    generation = pool.generation
    for _fid, page in keys:
        pool.get(pfile, page)
    pool.remember(token, generation, keys, "answer")


def test_recall_books_the_hits_and_moves_the_order():
    pfile, pool, keys = plan_pool()
    read_and_remember(pool, pfile, keys)
    pool.get(pfile, 5)                      # a fill: no bump
    assert pool.policy.keys()[-1] == (pfile.file_id, 5)
    hits, misses = pool.hits, pool.misses
    assert pool.recall("t") == "answer"
    assert (pool.hits, pool.misses) == (hits + 3, misses)
    assert pool.policy.keys() == [(pfile.file_id, 5)] + keys
    assert pool.recall("other") is None
    assert (pool.hits, pool.misses) == (hits + 3, misses)


@pytest.mark.parametrize("disturb", ["evict", "clear"])
def test_recall_returns_nothing_after_the_generation_moved(disturb):
    pfile, pool, keys = plan_pool(capacity=4)
    read_and_remember(pool, pfile, keys)
    generation = pool.generation
    if disturb == "evict":
        pool.get(pfile, 7)
        pool.get(pfile, 8)                  # capacity 4: evicts page 0
        assert not pool.contains(pfile, 0)
    else:
        pool.clear()
    assert pool.generation > generation
    hits = pool.hits
    assert pool.recall("t") is None
    assert pool.hits == hits


def test_remember_refuses_what_it_cannot_vouch_for():
    """A stale generation, a non-resident key and a full table each
    leave nothing to recall."""
    pfile, pool, keys = plan_pool(capacity=4)
    stale = pool.generation
    for page in (7, 8, 9, 10, 0, 1, 2):     # capacity 4: evictions
        pool.get(pfile, page)
    assert pool.generation > stale
    assert all(pool.contains(pfile, page) for _fid, page in keys)
    pool.remember("stale", stale, keys, "answer")
    assert pool.recall("stale") is None

    absent = keys + [(pfile.file_id, 11)]
    pool.remember("absent", pool.generation, absent, "answer")
    assert pool.recall("absent") is None

    pfile, pool, keys = plan_pool(capacity=3)
    for token in range(5):
        read_and_remember(pool, pfile, keys, token=token)
    assert [pool.recall(token) for token in range(5)] == \
        ["answer"] * 3 + [None] * 2
