"""Trace recorder: nesting, attributes, summaries, the disabled default."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.trace import TraceRecorder, get_tracer, span, use_tracer


def test_nested_spans_record_depth_and_parent():
    tracer = TraceRecorder()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.records
    assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)
    assert (inner.name, inner.depth, inner.parent) == ("inner", 1, 0)
    assert outer.duration_ms >= inner.duration_ms


def test_self_time_excludes_children():
    tracer = TraceRecorder()
    with tracer.span("outer"):
        with tracer.span("child"):
            pass
    outer = tracer.records[0]
    assert outer.child_ms == pytest.approx(tracer.records[1].duration_ms)
    assert outer.self_ms == pytest.approx(
        outer.duration_ms - outer.child_ms)


def test_span_attrs_at_open_and_exit():
    tracer = TraceRecorder()
    with tracer.span("q", cell=3) as sp:
        sp.attrs["nodes"] = 7
    assert tracer.records[0].attrs == {"cell": 3, "nodes": 7}


def test_disabled_recorder_yields_none_and_stores_nothing():
    tracer = TraceRecorder(enabled=False)
    with tracer.span("x") as sp:
        assert sp is None
    assert tracer.records == []


def test_default_tracer_is_disabled():
    assert get_tracer().enabled is False
    with span("anything") as sp:
        assert sp is None


def test_use_tracer_scoping():
    with use_tracer() as tracer:
        assert get_tracer() is tracer
        with span("scoped"):
            pass
    assert [r.name for r in tracer.records] == ["scoped"]
    assert get_tracer().enabled is False


def test_summarize_aggregates_by_name():
    tracer = TraceRecorder()
    for _ in range(3):
        with tracer.span("frame"):
            with tracer.span("search"):
                pass
    summary = tracer.summarize()
    assert summary["frame"]["count"] == 3
    assert summary["search"]["count"] == 3
    assert summary["frame"]["total_ms"] >= summary["search"]["total_ms"]
    assert summary["frame"]["mean_ms"] == pytest.approx(
        summary["frame"]["total_ms"] / 3)


def test_max_spans_cap_counts_drops_and_keeps_parent_time():
    tracer = TraceRecorder(max_spans=1)
    with tracer.span("kept"):
        with tracer.span("dropped") as sp:
            assert sp is None
    assert len(tracer.records) == 1
    assert tracer.dropped == 1
    # The dropped child still contributed to the parent's child time.
    assert tracer.records[0].child_ms >= 0.0


def test_clear_rejects_open_spans():
    tracer = TraceRecorder()
    with pytest.raises(ObservabilityError):
        with tracer.span("open"):
            tracer.clear()
    tracer.clear()
    assert tracer.records == []
