"""Count budget of the demand-miss path (also run by CI's ``perf-smoke``).

Not a timing test: each check counts something a miss must *not* do, so
that a refactor which quietly brings one of them back fails here rather
than in a benchmark run.  A replay of 1,000 evicting misses through
the ``pageio`` facade

* calls into exactly one ``PagedFile`` per miss, once — the ``read_run``
  of one page of the file it was handed — and into none on a hit (an
  eviction does no I/O: there is no other file to write a victim back
  to);
* pulls exactly one key out of 2Q's queues per eviction, at
  capacity 128 and at 4,096 (``victims()`` copies nothing: eviction is
  not O(capacity));
* never re-derives a registry label key once the series exist.

And a recall whose missing keys form ``r`` runs (consecutive page ids of
one file, hits in between allowed) makes exactly ``r`` ``pageio`` calls
and ``r`` ``PagedFile`` calls.
"""

from collections import OrderedDict

import pytest

from repro.obs import metrics
from repro.storage import pageio
from repro.storage.buffer import BufferPool
from repro.storage.disk import FREE_DISK, IOStats
from repro.storage.pagedfile import PagedFile

MISSES = 1000


class CountingOrder(OrderedDict):
    """A policy queue that counts every key iterated out of it — by the
    pool, or by a ``list(...)`` copy inside ``victims()``."""

    pulled = 0

    def __iter__(self):
        for key in super().__iter__():
            CountingOrder.pulled += 1
            yield key


def pool_reader(pfile, first_page, count):
    return pageio.read_run(pfile, first_page, count, component="budget")


def count_file_calls(monkeypatch):
    """Patch every public ``PagedFile`` method to log ``(file, name)``."""
    file_calls = []
    for name, method in list(vars(PagedFile).items()):
        if callable(method) and not name.startswith("_"):
            monkeypatch.setattr(
                PagedFile, name,
                lambda self, *args, _name=name, _method=method:
                file_calls.append((self.name, _name))
                or _method(self, *args))
    return file_calls


def decode(data):
    return (data[0], len(data))


@pytest.mark.parametrize("policy_name", ["2q"])
@pytest.mark.parametrize("capacity", [128, 4096])
def test_thousand_evicting_misses_stay_within_budget(monkeypatch, capacity,
                                                     policy_name):
    # Two files behind one pool: whichever file a victim came from, a
    # miss touches only the file it reads.
    files = [PagedFile(f"budget-{i}", page_size=64, disk=FREE_DISK,
                       stats=IOStats()) for i in range(2)]
    for pfile in files:
        pfile.allocate_many(capacity + MISSES)
    pool = BufferPool(capacity, name=f"budget-{policy_name}")
    queues = [name for name, value in vars(pool.policy).items()
              if isinstance(value, OrderedDict)]
    assert queues
    for name in queues:
        setattr(pool.policy, name, CountingOrder())

    def fault(page_id):
        return pool.get(files[page_id % 2], page_id, reader=pool_reader,
                        decoder=decode)

    # Warm-up: fill the pool and let every metric series come to exist.
    for page_id in range(capacity):
        fault(page_id)
    assert pool.resident_pages == capacity and pool.evictions == 0

    label_keys = []
    real_label_key = metrics._label_key
    monkeypatch.setattr(
        metrics, "_label_key",
        lambda labels: label_keys.append(1) or real_label_key(labels))
    monkeypatch.setattr(CountingOrder, "pulled", 0)
    file_calls = count_file_calls(monkeypatch)

    for page_id in range(capacity, capacity + MISSES):
        assert fault(page_id) == (0, 64)
        assert file_calls == [(files[page_id % 2].name, "read_run")]
        assert fault(page_id) == (0, 64)        # and once more: a hit
        assert len(file_calls) == 1
        file_calls.clear()

    assert (pool.misses, pool.evictions) == (capacity + MISSES, MISSES)
    assert pool.hits == MISSES
    assert sum(pfile.stats.reads for pfile in files) == capacity + MISSES
    assert CountingOrder.pulled == MISSES       # one per eviction
    assert label_keys == []


#: ``(resident before the recall, plan, runs of its missing keys)`` over
#: files ``a`` and ``b``: gaps, a switch of file, hits and duplicates
#: inside a run, and a plan whose only misses are one run.
RECALLS = [
    ([], [("a", 0), ("a", 1), ("a", 2)], 1),
    ([], [("a", 0), ("a", 2), ("a", 3), ("a", 5)], 3),
    ([], [("a", 0), ("a", 1), ("b", 2), ("a", 2), ("a", 3)], 3),
    ([("b", 9), ("a", 1)],
     [("a", 0), ("b", 9), ("a", 1), ("a", 2), ("a", 2), ("a", 3)], 2),
    ([("a", 4)], [("a", 2), ("a", 3), ("b", 0), ("a", 4), ("b", 1)], 2),
    ([("a", 0), ("b", 0)], [("a", 0), ("b", 0)], 0),
]


@pytest.mark.parametrize("resident, plan, runs", RECALLS)
def test_a_recall_reads_each_run_of_misses_in_one_call(monkeypatch,
                                                       resident, plan, runs):
    files = {name: PagedFile(f"run-{name}", page_size=64, disk=FREE_DISK,
                             stats=IOStats()) for name in "ab"}
    for name, pfile in files.items():
        for page_id in range(10):
            pfile.append_page(f"{name}{page_id}".encode())
    pool = BufferPool(64, name="runs")
    for name, page_id in resident:
        pool.get(files[name], page_id)
    keys = [(files[name].file_id, page_id) for name, page_id in plan]
    pool.remember("plan", keys, "answer")
    misses = len(set(keys) - {(files[name].file_id, page_id)
                              for name, page_id in resident})
    reads = len(resident)

    facade_calls = []
    for name in ("read_page", "read_run"):
        real = getattr(pageio, name)
        monkeypatch.setattr(
            pageio, name,
            lambda *args, _name=name, _real=real, **kwargs:
            facade_calls.append(_name) or _real(*args, **kwargs))
    file_calls = count_file_calls(monkeypatch)

    readers = [(pfile, pool_reader) for pfile in files.values()]
    assert pool.recall("plan", readers) == ("answer", misses)
    assert facade_calls == ["read_run"] * runs
    assert [call for _file, call in file_calls] == ["read_run"] * runs
    assert sum(pfile.stats.reads for pfile in files.values()) \
        == reads + misses
    monkeypatch.undo()
    for name, page_id in plan:
        page = pool.get(files[name], page_id)
        assert page == f"{name}{page_id}".encode().ljust(64, b"\0")
    assert pool.misses == len(resident) + misses
