"""Count budget of the cold point query (also run by CI's ``perf-smoke``).

Not a timing test: each check counts something a warmed, unpooled
``query_point`` — the paper's Figure 7/8 query, and ``point_query_cold``'s
op — must *not* do, on each of the five scheme/codec variants, so that
a refactor which quietly brings one back fails here rather than in a
benchmark run:

* no ``MetricsRegistry.counter`` lookup: ``pageio`` bumps handles from
  its table once the series exist;
* no ``run_with_retry`` frame on a file without an injector: ``pageio``
  calls the file directly;
* one models-file call per leaf node that retrieves an object (its
  ``read_runs``), not one per object, plus one ``read_run`` per
  internal LoD retrieved;
* one ``PagedFile._charge`` per access: per ``read_page``, per
  non-empty ``read_run`` and per non-empty run a ``read_runs`` books
  (``tests/test_model_fetch_batch.py`` holds those bookings' ledgers
  equal to one ``read_run`` per run).
"""

from collections import Counter

import pytest

from repro.core.search import HDoVSearch
from repro.obs.metrics import MetricsRegistry
from repro.storage import pageio
from repro.storage.pagedfile import PagedFile

VARIANTS = [("env", "horizontal"), ("env", "vertical"),
            ("env", "indexed-vertical"), ("env_packed", "vertical"),
            ("env_packed", "indexed-vertical")]
ETAS = (0.0, 0.001, 0.05)


def log_calls(monkeypatch, owner, name, calls, key):
    real = getattr(owner, name)

    def logged(*args, **kwargs):
        calls[key(*args)] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)


def warmed(request, fixture, scheme):
    """A fetching search over the variant and its queries, each run once
    so that every series exists."""
    env = request.getfixturevalue(fixture)
    search = HDoVSearch(env, scheme, fetch_models=True)
    queries = [(env.grid.cell_center(cell), eta)
               for cell in env.grid.cell_ids() for eta in ETAS]
    for point, eta in queries:
        env.reset_runtime_state()
        search.query_point(point, eta)
    return env, search, queries


@pytest.mark.parametrize("fixture, scheme", VARIANTS)
def test_a_warmed_cold_query_stays_within_budget(request, monkeypatch,
                                                 fixture, scheme):
    env, search, queries = warmed(request, fixture, scheme)
    leaf_of = {entry.object_id: index
               for index, leaf in enumerate(env.tree.iter_leaves())
               for entry in leaf.entries}

    calls = Counter()
    log_calls(monkeypatch, MetricsRegistry, "counter", calls,
              lambda *args: "counter")
    log_calls(monkeypatch, pageio, "run_with_retry", calls,
              lambda op, pfile, *args: ("retry", pfile.faults is None))
    models = env.object_store.pfile
    for name in ("read_page", "read_run", "read_runs", "write_page"):
        log_calls(monkeypatch, PagedFile, name, calls,
                  lambda pfile, *args, _name=name:
                  _name if pfile is models else "light")
    batched = 0
    for point, eta in queries:
        env.reset_runtime_state()
        result = search.query_point(point, eta)
        leaves = {leaf_of[obj.object_id] for obj in result.objects}
        assert calls.pop("read_runs", 0) == len(leaves)
        assert calls.pop("read_run", 0) == len(result.internals)
        assert calls.pop("light") >= result.nodes_read   # tree, V-pages
        assert calls == {}, calls           # no counter, retry or write
        batched += len(result.objects) > len(leaves)
    assert batched > 0                      # a leaf fetched several objects


@pytest.mark.parametrize("fixture, scheme", VARIANTS)
def test_a_warmed_cold_query_charges_once_per_access(request, monkeypatch,
                                                     fixture, scheme):
    env, search, queries = warmed(request, fixture, scheme)
    calls = Counter()
    log_calls(monkeypatch, PagedFile, "_charge", calls,
              lambda *args: "_charge")
    log_calls(monkeypatch, PagedFile, "read_page", calls,
              lambda *args: "access")
    log_calls(monkeypatch, PagedFile, "read_run", calls,
              lambda pfile, first_page, count: "access" if count
              else "empty")
    real_read_runs = PagedFile.read_runs

    def read_runs(pfile, runs):
        calls["read_runs"] += 1
        calls["access"] += sum(1 for _first_page, count in runs if count)
        return real_read_runs(pfile, runs)

    monkeypatch.setattr(PagedFile, "read_runs", read_runs)
    batches = 0
    for point, eta in queries:
        env.reset_runtime_state()
        search.query_point(point, eta)
        assert calls.pop("_charge", 0) == calls.pop("access", 0)
        calls.pop("empty", 0)           # a read of no page charges nothing
        batches += calls.pop("read_runs", 0)
        assert calls == {}, calls
    assert batches > 0                  # some leaf's runs were booked
