"""Metrics registry: instruments, labels, snapshot/delta, scoping."""

import gc

import pytest

from repro.errors import ObservabilityError
from repro.obs import metrics, names
from repro.obs.metrics import (MetricsRegistry, format_series, get_registry,
                               use_registry)
from repro.storage import pageio
from repro.storage.pagedfile import PagedFile


def test_counter_basics():
    reg = MetricsRegistry()
    c = reg.counter("requests_total", kind="read")
    c.inc()
    c.inc(2.5)
    assert reg.value("requests_total", kind="read") == pytest.approx(3.5)
    # Unlabelled same-name series is independent.
    assert reg.value("requests_total") == 0.0
    # ... and ``total`` sums a name over all its label sets.
    reg.counter("requests_total", kind="write").inc(2)
    assert reg.total("requests_total") == pytest.approx(5.5)
    assert reg.total("never_registered") == 0


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ObservabilityError):
        reg.counter("c").inc(-1)


def test_handles_are_memoized():
    reg = MetricsRegistry()
    a = reg.counter("c", file="tree")
    b = reg.counter("c", file="tree")
    assert a is b
    assert reg.counter("c", file="models") is not a


def test_kind_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ObservabilityError):
        reg.gauge("x")


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("resident_pages", pool="p")
    g.set(10)
    g.inc(-3)
    g.inc()
    assert reg.value("resident_pages", pool="p") == 8


def test_histogram_summary():
    reg = MetricsRegistry()
    h = reg.histogram("frame_ms")
    for v in (2.0, 4.0, 6.0):
        h.observe(v)
    assert h.count == 3
    assert h.mean == pytest.approx(4.0)
    collected = reg.collect()
    assert collected["frame_ms_count"] == 3
    assert collected["frame_ms_sum"] == pytest.approx(12.0)
    assert collected["frame_ms_min"] == pytest.approx(2.0)
    assert collected["frame_ms_max"] == pytest.approx(6.0)


def test_format_series():
    assert format_series("m", ()) == "m"
    assert format_series("m", (("a", "1"), ("b", "x"))) == 'm{a="1",b="x"}'


def test_snapshot_delta():
    reg = MetricsRegistry()
    c = reg.counter("ops", file="a")
    c.inc(5)
    snap = reg.snapshot()
    c.inc(2)
    reg.counter("ops", file="b").inc(1)
    delta = reg.delta(snap)
    assert delta == {'ops{file="a"}': 2.0, 'ops{file="b"}': 1.0}


def test_delta_skips_histogram_extremes():
    reg = MetricsRegistry()
    h = reg.histogram("t")
    h.observe(5.0)
    snap = reg.snapshot()
    h.observe(1.0)
    delta = reg.delta(snap)
    assert delta["t_count"] == 1.0
    assert delta["t_sum"] == pytest.approx(1.0)
    assert not any(k.startswith("t_min") or k.startswith("t_max")
                   for k in delta)


def test_reset_keeps_handles_valid():
    reg = MetricsRegistry()
    c = reg.counter("ops")
    c.inc(7)
    reg.reset()
    assert reg.value("ops") == 0.0
    c.inc()                          # the cached handle still works
    assert reg.value("ops") == 1.0


def test_use_registry_scoping():
    before = get_registry()
    with use_registry() as scoped:
        assert get_registry() is scoped
        assert scoped is not before
        scoped.counter("inner").inc()
    assert get_registry() is before
    assert before.value("inner") == 0.0


# -- the alias-dict fast path ------------------------------------------------
# A repeated ``counter(name, **labels)`` is answered from an alias dict
# in front of the label-keyed path; everything the keyed path guarantees
# holds on a fast hit too.


def test_per_call_fetch_follows_a_registry_swap():
    """``pageio`` checks its handle table's registry on every call:
    after a swap the counts land in the *current* registry, never in a
    remembered one."""
    from repro.obs import names
    from repro.storage import pageio
    from repro.storage.pagedfile import PagedFile

    pfile = PagedFile("swap", page_size=64)
    pfile.append_page(b"x")
    outer = get_registry()
    before = outer.value(names.PAGEIO_READS, component="swap-test")
    for _ in range(3):                  # warm the outer registry's alias
        pageio.read_page(pfile, 0, component="swap-test")
    with use_registry() as scoped:
        for _ in range(2):
            pageio.read_page(pfile, 0, component="swap-test")
        assert scoped.value(names.PAGEIO_READS, component="swap-test") == 2
    pageio.read_page(pfile, 0, component="swap-test")
    assert outer.value(names.PAGEIO_READS,
                       component="swap-test") == before + 4


def test_kind_mismatch_rejected_after_a_fast_hit():
    reg = MetricsRegistry()
    assert reg.counter("x", file="f") is reg.counter("x", file="f")
    with pytest.raises(ObservabilityError):
        reg.gauge("x", file="f")
    with pytest.raises(ObservabilityError):
        reg.gauge("x")
    with pytest.raises(ObservabilityError):
        reg.counter("")


def test_label_values_alias_by_their_string_form():
    reg = MetricsRegistry()
    one = reg.counter("c", component=1)
    assert reg.counter("c", component="1") is one
    assert reg.counter("c", component="1") is one       # fast hit
    assert reg.counter("c", component=1) is one
    # ``True == 1`` and hashes alike, but "True" is another series.
    assert reg.counter("c", component=True) is not one
    assert reg.counter("c", component=1) is one
    assert len(reg.series("c")) == 2
    # Keyword order does not make a new series either.
    assert reg.counter("d", a="x", b="y") is reg.counter("d", b="y", a="x")


def test_unhashable_label_values_take_the_label_key_path():
    reg = MetricsRegistry()
    first = reg.counter("c", component=["a", "b"])
    assert reg.counter("c", component=["a", "b"]) is first
    assert reg.counter("c", component="['a', 'b']") is first
    assert len(reg) == 1


def test_a_repeat_lookup_builds_no_label_key(monkeypatch):
    """A first use builds the series' label key; a repeat lookup of an
    existing series is one alias-dict hit and builds none."""
    label_keys = []
    real_label_key = metrics._label_key
    monkeypatch.setattr(
        metrics, "_label_key",
        lambda labels: label_keys.append(1) or real_label_key(labels))
    reg = MetricsRegistry()
    handle = reg.counter("c", file="f")
    assert label_keys == [1]
    for _ in range(5):
        assert reg.counter("c", file="f") is handle
    assert label_keys == [1]


# -- pageio's handle table ------------------------------------------------------
# ``pageio`` bumps handles from a table filled from one registry and
# refilled when ``get_registry()`` answers another; each case below must
# land every read and write in the active registry and nowhere else.


#: One access of each kind, and the (reads, writes) it counts.
ACCESSES = {
    "read_page": (lambda pfile, component: pageio.read_page(
        pfile, 0, component=component), (1, 0)),
    "read_run": (lambda pfile, component: pageio.read_run(
        pfile, 0, 1, component=component), (1, 0)),
    "write_page": (lambda pfile, component: pageio.write_page(
        pfile, 0, b"w", component=component), (0, 1)),
    "write_run": (lambda pfile, component: pageio.write_run(
        pfile, 0, [b"a"], component=component), (0, 1)),
}


def pageio_traffic(pfile, component):
    """Every kind of access once: two pages read, two written."""
    for access, _counts in ACCESSES.values():
        access(pfile, component)


def pageio_counts(registry, component):
    return (registry.value(names.PAGEIO_READS, component=component),
            registry.value(names.PAGEIO_WRITES, component=component))


@pytest.mark.parametrize("name", sorted(ACCESSES))
def test_pageio_handles_follow_a_swap_there_and_back(name):
    """``name`` is the first access after each swap, so its handle for
    the component is the one the table holds from the other registry."""
    access, (reads, writes) = ACCESSES[name]
    pfile = PagedFile("table", page_size=64)
    pfile.append_page(b"x")
    a, b = MetricsRegistry(), MetricsRegistry()
    with use_registry(a):
        pageio_traffic(pfile, "table-test")
        with use_registry(b):
            access(pfile, "table-test")
            assert pageio_counts(b, "table-test") == (reads, writes)
            pageio_traffic(pfile, "table-test")
        assert pageio_counts(a, "table-test") == (2, 2)
        access(pfile, "table-test")
        assert pageio_counts(a, "table-test") == (2 + reads, 2 + writes)
    assert pageio_counts(b, "table-test") == (2 + reads, 2 + writes)
    assert pageio_counts(get_registry(), "table-test") == (0, 0)


def test_pageio_handles_survive_a_reset():
    pfile = PagedFile("table", page_size=64)
    pfile.append_page(b"x")
    with use_registry() as registry:
        pageio_traffic(pfile, "table-test")
        registry.reset()
        assert pageio_counts(registry, "table-test") == (0, 0)
        pageio_traffic(pfile, "table-test")
        assert pageio_counts(registry, "table-test") == (2, 2)


def test_pageio_handles_never_outlive_a_collected_registry():
    """A scoped registry that is dropped and collected, then a new one
    (which may be allocated where the old one was): the new one gets
    every count, from zero."""
    pfile = PagedFile("table", page_size=64)
    pfile.append_page(b"x")
    for _ in range(3):
        with use_registry():
            pageio_traffic(pfile, "table-test")
        gc.collect()
        with use_registry() as fresh:
            pageio_traffic(pfile, "table-test")
            assert pageio_counts(fresh, "table-test") == (2, 2)
            assert len(fresh.series(names.PAGEIO_READS)) == 1


def test_an_empty_read_run_still_creates_its_series():
    pfile = PagedFile("table", page_size=64)
    with use_registry() as registry:
        assert pageio.read_run(pfile, 0, 0, component="table-empty") == b""
        assert 'pageio_reads_total{component="table-empty"}' \
            in registry.collect()
        assert registry.value(names.PAGEIO_READS,
                              component="table-empty") == 0
