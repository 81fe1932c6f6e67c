"""Smoke test of the benchmark harness (``--smoke`` profile).

Run explicitly — it is not under the tier-1 ``testpaths``::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py -q

Checks that every workload emits every metric ``BENCHMARK.json`` names,
that ``BENCHMARK.json`` is the catalogue in ``report.py``, that the
tracer leaves the program exactly as it found it, and that a corrupted
answer is counted as a failure.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(REPO, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import report  # noqa: E402
import run as bench  # noqa: E402
import trace as tracing  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def test_benchmark_json_is_the_catalogue():
    assert MANIFEST == report.manifest()
    assert MANIFEST["paths"] == ["benchmarks/perf"]
    assert len(WORKLOADS) == 4
    assert len(MANIFEST["end_to_end"]) == 9
    assert len(MANIFEST["per_layer"]) <= 128
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """All four workloads, both modes, on the smoke profile."""
    started = time.perf_counter()
    outcomes = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            outcomes[workload, trace] = bench.run(
                workload, seed=1, seconds=0.0, trace=trace, smoke=True,
                workdir=str(tmp_path_factory.mktemp("journal")))
    return outcomes, time.perf_counter() - started


def test_smoke_profile_is_quick(smoke_runs):
    _outcomes, elapsed = smoke_runs
    assert elapsed < 30.0


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(smoke_runs, workload, trace):
    outcomes, _elapsed = smoke_runs
    result = outcomes[workload, trace]["result"]
    assert result["correct"], outcomes[workload, trace]["detail"]["notes"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, metric["name"]


def test_traced_round_covers_the_round(smoke_runs):
    outcomes, _elapsed = smoke_runs
    for workload in WORKLOADS:
        metrics = outcomes[workload, True]["result"]["metrics"]
        assert 0.90 <= metrics["bench.trace.coverage"]["value"] <= 1.0
        assert metrics["bench.trace.overhead_ratio"]["value"] > 0


def test_same_seed_same_inputs(tmp_path):
    def digest(seed):
        outcome = bench.run("journal_write_mix", seed=seed, seconds=0.0,
                            trace=False, smoke=True, workdir=str(tmp_path))
        assert outcome["result"]["correct"]
        return outcome["detail"]["input_digest"]

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def _repro_attributes():
    """Identity of every attribute of every loaded ``repro`` module and
    of every class defined in them."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            seen[name, attr] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    seen[name, attr, member] = id(inner)
    return seen


def test_tracer_uninstall_restores_the_program():
    before = _repro_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    assert _repro_attributes() != before
    tracer.uninstall()
    assert _repro_attributes() == before


def test_corrupted_answer_is_a_failed_op(monkeypatch, tmp_path):
    from repro.core.search import HDoVSearch

    original = HDoVSearch.query_cell

    def drop_one_object(self, cell_id, eta):
        result = original(self, cell_id, eta)
        if self.scheme.name == "vertical" and result.objects:
            result.objects.pop()
        return result

    monkeypatch.setattr(HDoVSearch, "query_cell", drop_one_object)
    outcome = bench.run("point_query_cold", seed=1, seconds=0.0,
                        trace=False, smoke=True, workdir=str(tmp_path))
    result = outcome["result"]
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_ops_share"]["value"] < 1.0
