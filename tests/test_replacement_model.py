"""The pool's 2Q replacement order against a list-based reference model.

``victims()`` iterates the policy's own queues in place (the pool takes
its first key and abandons the iterator), so the order is checked
here against a model that copies nothing cleverly: plain lists, linear
scans.  Random ``get`` / ``clear`` sequences must produce the same
eviction sequence, victim order, resident order, ghost hits and
promotions, step by step.

The second model is of ``remember`` / ``recall``: a recalled plan must
be, to every counter, to the replacement order, to the files' I/O
ledger and to their registry series, the ``get`` calls it stands for —
evictions since it was remembered included, its missing pages read in
runs — and must be gone after a ``clear``.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.storage import pageio
from repro.storage.buffer import BufferPool
from repro.storage.disk import FREE_DISK, DiskModel, IOStats
from repro.storage.faults import FaultInjector
from repro.storage.pagedfile import PagedFile

PAGES = 12


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


def recording(pool):
    """``pool``'s policy, made to list the keys it is told to evict, in
    order, as ``evicted``."""
    policy = pool.policy
    policy.evicted = []
    on_evict = policy.on_evict

    def record(key):
        policy.evicted.append(key)
        on_evict(key)

    policy.on_evict = record
    return policy


def make_file(pages=PAGES, disk=FREE_DISK, *, name="model", stats=None,
              tag=b""):
    pf = PagedFile(name, page_size=64, disk=disk,
                   stats=stats if stats is not None else IOStats())
    for i in range(pages):
        pf.append_page(bytes([i % 251]) * 8 + tag)
    return pf


OPS = st.lists(st.tuples(
    st.sampled_from(["get"] * 15 + ["clear"]),
    st.integers(0, PAGES - 1)), max_size=120)


@pytest.mark.parametrize("policy_name", ["2q"])
@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 6), ops=OPS)
def test_pool_evicts_exactly_as_the_list_model(policy_name, capacity, ops):
    pfile = make_file()
    pool = BufferPool(capacity, name=f"model-{policy_name}")
    policy = recording(pool)
    model = ModelPool(TwoQModel(capacity), capacity)
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

#: Few distinct ``(file, page)`` lists, so that a query often meets its
#: own plan: runs of consecutive pages on either file, a run that goes on
#: in page ids but on the other file, gaps, backward steps and repeated
#: keys, inside a run too.
QUERIES = [
    [(0, 0), (0, 1), (0, 2)],
    [(0, 2), (0, 3), (1, 4), (1, 5)],
    [(0, 4), (0, 0), (0, 4), (0, 5)],
    [(1, 6)],
    [(0, 1), (1, 7), (0, 2), (1, 8), (0, 3)],
    [(1, 0), (1, 1), (1, 2), (1, 1), (1, 3), (0, 9)],
    [(0, 6), (0, 8), (0, 7), (1, 9), (1, 11), (1, 10)],
]

KEYS = st.tuples(st.integers(0, 1), st.integers(0, PAGES - 1))

PLAN_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["get", "get", "get", "clear"]), KEYS),
    st.tuples(st.just("query"), st.sampled_from(QUERIES)),
    st.tuples(st.just("query"), st.sampled_from(QUERIES))),
    max_size=80)

#: Every per-file series a read moves.
FILE_SERIES = (names.PAGEDFILE_READS, names.PAGEDFILE_SEEKS,
               names.PAGEDFILE_BACK_SEEKS, names.PAGEDFILE_FORWARD_SEEKS,
               names.PAGEDFILE_SEQUENTIAL, names.PAGEDFILE_BYTES_READ,
               names.PAGEDFILE_SIMULATED_MS)

POOL_SERIES = (names.BUFFERPOOL_HITS, names.BUFFERPOOL_MISSES,
               names.BUFFERPOOL_EVICTIONS, names.BUFFERPOOL_RESIDENT_PAGES)


class PooledFiles:
    """A pool over files 0 and 1, which share one ``IOStats`` as an
    environment's light files do; misses read through ``pageio`` under
    the component ``label``.  Page ``p`` of file ``f`` holds the same
    bytes in every ``PooledFiles``."""

    def __init__(self, label, capacity):
        self.label = label
        self.stats = IOStats()
        self.files = [make_file(PAGES + FRESH, disk=DiskModel(),
                                name=f"{label}-{index}", stats=self.stats,
                                tag=bytes([index]))
                      for index in range(2)]
        self.index = {pfile.file_id: index
                      for index, pfile in enumerate(self.files)}
        self.pool = BufferPool(capacity, name=label)
        recording(self.pool)
        self.readers = [(pfile, self.reader) for pfile in self.files]

    def reader(self, pfile, first_page, count):
        return pageio.read_run(pfile, first_page, count,
                               component=self.label)

    def key(self, file_page):
        index, page = file_page
        return self.files[index].file_id, page

    def get(self, file_page):
        index, page = file_page
        return self.pool.get(self.files[index], page, reader=self.reader)

    def state(self, registry):
        """Counters, resident order, 2Q tallies and evictions so far, by
        ``(file, page)``; the shared ``IOStats``; and the registry series
        of the pool, of its ``pageio`` component and of each file."""
        def keys(order):
            return [(self.index[fid], page) for fid, page in order]
        pool = self.pool
        return (pool.hits, pool.misses, pool.evictions,
                keys(pool.policy.keys()), pool.policy.stats(),
                keys(pool.policy.evicted), self.stats.to_dict(),
                registry.value(names.PAGEIO_READS, component=self.label),
                [registry.value(name, pool=self.label)
                 for name in POOL_SERIES],
                [registry.value(name, file=pfile.name)
                 for pfile in self.files for name in FILE_SERIES])


@pytest.mark.parametrize("policy_name", ["2q"])
@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 8), ops=PLAN_OPS)
def test_recall_is_the_gets_it_stands_for(policy_name, capacity, ops):
    """Two pools over twin pairs of files get the same ops.  A ``query``
    reads a ``(file, page)`` list: the twin always issues the ``get``
    calls; the planning pool recalls the list's plan if it holds one —
    from its first reading until ``clear``, evictions in between or not
    — and otherwise reads and remembers.  After every step the pools
    agree on every counter, the resident order and the 2Q tallies, the
    files' shared I/O ledger (seeks back and forward, sequential reads,
    simulated ms, float for float), ``pageio_reads_total`` and every
    per-file series; every resident frame of the planner holds its
    page's bytes; at the end they agree on the next ``FRESH`` victims."""
    with use_registry(MetricsRegistry()) as registry:
        planner, twin = (PooledFiles(label, capacity)
                         for label in ("plan", "twin"))
        held = set()            # tokens remembered since the last clear
        for step, (op, arg) in enumerate(ops):
            where = (step, op, arg)
            if op == "query":
                token = tuple(arg)
                misses = twin.pool.misses
                read = tuple(twin.get(file_page) for file_page in arg)
                recalled = planner.pool.recall(token, planner.readers)
                assert (recalled is not None) == (token in held), where
                if recalled is None:
                    data = tuple(planner.get(file_page) for file_page in arg)
                    planner.pool.remember(
                        token, [planner.key(file_page) for file_page in arg],
                        data)
                    held.add(token)
                else:
                    answer, pages_read = recalled
                    event("recalled, read" if pages_read
                          else "recalled, hits")
                    if len(set(arg)) > capacity:
                        event("recalled a plan larger than the pool")
                    assert answer == read, where
                    assert pages_read == twin.pool.misses - misses, where
            else:
                for side in (planner, twin):
                    if op == "get":
                        side.get(arg)
                    else:
                        side.pool.clear()
                if op == "clear":
                    held.clear()
            assert planner.state(registry) == twin.state(registry), where
            for (fid, page), frame in planner.pool._frames.items():
                assert frame.data == (bytes([page]) * 8 + bytes(
                    [planner.index[fid]])).ljust(64, b"\0"), where
        for page in range(PAGES, PAGES + FRESH):
            planner.get((page % 2, page))
            twin.get((page % 2, page))
        assert planner.state(registry) == twin.state(registry)


def plan_pool():
    """Capacity 4 with plan ``"t"``, the reads of pages 0-2.  Each was
    re-read after falling out of 2Q's FIFO, so they lead the protected
    queue in that order, while page 4 alone fills the FIFO's target."""
    pfile = make_file()
    pool = BufferPool(4, name="plan")
    for page in (0, 1, 2, 3, 4, 0, 1, 2):
        pool.get(pfile, page)
    keys = [(pfile.file_id, page) for page in range(3)]
    assert pool.policy.keys() == [(pfile.file_id, 4)] + keys
    pool.remember("t", keys, "answer")
    return pfile, pool, keys


def evict_page_zero(pool, pfile):
    """The FIFO is at its target, so one miss evicts the protected
    queue's least recent page, 0; pages 1 and 2 stay."""
    evictions = pool.evictions
    pool.get(pfile, 5)
    assert pool.evictions == evictions + 1
    assert not pool.contains(pfile, 0)


def test_recall_books_the_hits_and_moves_the_order():
    pfile, pool, keys = plan_pool()
    pool.get(pfile, 1)
    assert pool.policy.keys() == [(pfile.file_id, 4), keys[0], keys[2],
                                  keys[1]]
    hits, misses = pool.hits, pool.misses
    assert pool.recall("t", [(pfile, None)]) == ("answer", 0)
    assert (pool.hits, pool.misses) == (hits + 3, misses)
    assert pool.policy.keys() == [(pfile.file_id, 4)] + keys
    assert pool.recall("other", [(pfile, None)]) is None
    assert (pool.hits, pool.misses) == (hits + 3, misses)


def test_a_clear_drops_a_plan_and_an_eviction_does_not():
    pfile, pool, keys = plan_pool()
    files = [(pfile, None)]
    evict_page_zero(pool, pfile)
    hits, misses, reads = pool.hits, pool.misses, pfile.stats.reads
    assert pool.recall("t", files) == ("answer", 1)
    assert (pool.hits, pool.misses) == (hits + 2, misses + 1)
    assert pfile.stats.reads == reads + 1
    # Page 0 read back in place of 4, the FIFO's head, and enters the
    # FIFO (an eviction from the protected queue leaves no ghost).
    assert pool.policy.keys() == [(pfile.file_id, 5)] + keys
    pool.clear()
    hits, misses = pool.hits, pool.misses
    assert pool.recall("t", files) is None
    assert (pool.hits, pool.misses) == (hits, misses)


def test_a_plan_that_would_read_under_an_injector_books_nothing():
    """A read fails only under an injector; a recall never issues one
    that could fail, so a missing key sends the query to its own reads,
    while a plan whose pages are all resident is recalled as before."""
    pfile, pool, _keys = plan_pool()
    files = [(pfile, None)]
    injector = FaultInjector(seed=0)        # installed, injects nothing
    injector.install(pfile)
    try:
        assert pool.recall("t", files) == ("answer", 0)
        evict_page_zero(pool, pfile)
        before = (pool.hits, pool.misses, pool.evictions,
                  pool.policy.keys(), pfile.stats.snapshot())
        assert pool.recall("t", files) is None
        assert (pool.hits, pool.misses, pool.evictions,
                pool.policy.keys(), pfile.stats) == before
    finally:
        injector.uninstall()
    assert pool.recall("t", files) == ("answer", 1)


def test_a_plan_that_would_read_a_disk_backed_or_closed_file_books_nothing(
        tmp_path):
    """A read on disk can fail (I/O, short read, CRC), and so can any
    read of a closed file; a recall's run is read after its frames are
    installed, so with such a file in ``files`` a missing key refuses
    the recall exactly as an injector does — with the missing page on
    the other, in-memory file too."""
    memory = make_file()
    disk = PagedFile("model-disk", page_size=64, disk=FREE_DISK,
                     stats=IOStats(), path=str(tmp_path / "pages"))
    for page in range(PAGES):
        disk.append_page(bytes([page]) * 8)
    pool = BufferPool(4, name="plan-disk")
    files = [(memory, None), (disk, None)]
    keys = [(disk.file_id, 0), (memory.file_id, 1), (disk.file_id, 2)]
    pool.get(disk, 0)
    pool.get(memory, 1)
    pool.get(disk, 2)
    pool.remember("t", keys, "answer")
    assert pool.recall("t", files) == ("answer", 0)
    for evicted, pfile in ((0, disk), (1, memory)):
        pool.clear()
        pool.remember("t", keys, "answer")
        for fid, page in keys:
            if page != evicted:
                pool.get(disk if fid == disk.file_id else memory, page)
        before = (pool.hits, pool.misses, pool.evictions,
                  pool.policy.keys(), memory.stats.snapshot(),
                  disk.stats.snapshot())
        assert pool.recall("t", files) is None
        assert (pool.hits, pool.misses, pool.evictions, pool.policy.keys(),
                memory.stats, disk.stats) == before
    assert pool.recall("t", [(memory, None)]) == ("answer", 1)
    disk.close()
    memory.close()
    assert pool.recall("t", [(memory, None)]) == ("answer", 0)
    pool.clear()
    pool.remember("t", keys, "answer")
    assert pool.recall("t", [(memory, None)]) is None


def test_a_plan_larger_than_the_pool_is_never_booked_as_all_hits():
    """Each recall of three pages through two frames evicts its own
    first pages: it must read all three again every time, never stamp
    the plan as resident."""
    pfile = make_file()
    pool = BufferPool(2, name="plan")
    keys = [(pfile.file_id, page) for page in range(3)]
    for _fid, page in keys:
        pool.get(pfile, page)
    pool.remember("t", keys, "answer")
    for _ in range(3):
        hits, misses = pool.hits, pool.misses
        assert pool.recall("t", [(pfile, None)]) == ("answer", 3)
        assert (pool.hits, pool.misses) == (hits, misses + 3)
