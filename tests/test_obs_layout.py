"""End-to-end layout runner tests: the four-variant replay over the
small scale must hold every structural guarantee the benchmark gates
on, byte-identically across runs — plus the packed build's
search-equivalence and corruption-degradation contracts over the
shared small environment."""

import json

import pytest

from repro.cli import main
from repro.core.search import HDoVSearch
from repro.errors import ExperimentError
from repro.obs.layout import run_layout

FRAMES = 40


@pytest.fixture(scope="module")
def report():
    return run_layout(scale="small", frames=FRAMES)


def test_layout_all_checks_pass(report):
    assert report["ok"] is True
    for name in ("vertical", "indexed-vertical"):
        checks = report["schemes"][name]["checks"]
        assert all(checks.values()), (name, checks)


def test_layout_digests_agree_across_variants(report):
    for scheme_report in report["schemes"].values():
        digests = {scheme_report[v]["selection_digest"]
                   for v in ("baseline", "rewritten", "compressed",
                             "compressed_rewritten")}
        assert len(digests) == 1


def test_layout_improvements_are_strict(report):
    for scheme_report in report["schemes"].values():
        base = scheme_report["baseline"]
        rewritten = scheme_report["rewritten"]
        compressed = scheme_report["compressed"]
        assert rewritten["light"]["back_seeks"] \
            < base["light"]["back_seeks"]
        assert compressed["light"]["bytes_read"] \
            < base["light"]["bytes_read"]
        # Models are heavy I/O and a pure function of the selections:
        # exactly equal bytes proves the selections never changed.
        assert compressed["heavy"]["bytes_read"] \
            == base["heavy"]["bytes_read"]
        compression = compressed["compression"]
        assert compression["ratio"] < 1.0
        assert compression["delta_records"] > 0


def test_layout_report_is_byte_deterministic(report):
    again = run_layout(scale="small", frames=FRAMES)
    assert json.dumps(report, sort_keys=True) \
        == json.dumps(again, sort_keys=True)


def test_layout_rejects_unsupported_scheme():
    with pytest.raises(ExperimentError):
        run_layout(scale="small", frames=4, schemes=("horizontal",))


# -- CLI ---------------------------------------------------------------------


def test_cli_layout_bad_scheme_is_usage_error(capsys):
    code = main(["layout", "--frames", "4", "--schemes", "horizontal"])
    assert code == 2
    assert "layout" in capsys.readouterr().err


# -- packed environment: search equivalence and corruption -------------------


def interesting_cells(env, limit=4):
    cells = sorted(env.grid.cell_ids(),
                   key=lambda c: -env.visibility.cell(c).num_visible)
    return cells[:limit]


@pytest.mark.parametrize("scheme_name", ["vertical", "indexed-vertical"])
def test_packed_env_selects_identically_to_raw(env, env_packed,
                                               scheme_name):
    raw_search = HDoVSearch(env, scheme_name)
    packed_search = HDoVSearch(env_packed, scheme_name)
    for eta in (0.0, 0.002):
        for cell_id in interesting_cells(env):
            env.scheme(scheme_name).current_cell = None
            env_packed.scheme(scheme_name).current_cell = None
            raw = raw_search.query_cell(cell_id, eta)
            packed = packed_search.query_cell(cell_id, eta)
            assert packed.object_ids() == raw.object_ids()
            assert [(i.node_offset, i.fraction) for i in packed.internals] \
                == [(i.node_offset, i.fraction) for i in raw.internals]


def test_packed_env_reads_fewer_vpage_bytes(env, env_packed):
    name = "vertical"
    for e in (env, env_packed):
        e.scheme(name).reset_runtime_state()
        e.reset_stats()
    cells = interesting_cells(env, limit=6)
    for cell_id in cells:
        HDoVSearch(env, name).query_cell(cell_id, 0.001)
        HDoVSearch(env_packed, name).query_cell(cell_id, 0.001)
    assert env_packed.light_stats.bytes_read < env.light_stats.bytes_read
    assert env_packed.heavy_stats.bytes_read == env.heavy_stats.bytes_read


def test_corrupt_compressed_page_degrades_never_garbage(env_packed):
    """Flip bits across the packed stream's first page: every affected
    query must either degrade (PageCorruptError absorbed by the search
    ladder) or answer identically — silent wrong answers are the one
    forbidden outcome."""
    scheme = env_packed.scheme("vertical")
    search = HDoVSearch(env_packed, "vertical")
    cells = interesting_cells(env_packed, limit=4)
    clean = {}
    for cell_id in cells:
        scheme.current_cell = None
        result = search.query_cell(cell_id, 0.002)
        clean[cell_id] = (result.object_ids(),
                          [(i.node_offset, i.fraction)
                           for i in result.internals])
    original = bytes(scheme.vpage_file.read_page(0))
    page = bytearray(original)
    for i in range(0, len(page), 7):
        page[i] ^= 0x55
    try:
        scheme.vpage_file.write_page(0, bytes(page))
        scheme.reset_runtime_state()
        degraded_somewhere = False
        for cell_id in cells:
            scheme.current_cell = None
            result = search.query_cell(cell_id, 0.002)   # must not raise
            if result.degraded:
                degraded_somewhere = True
            else:
                got = (result.object_ids(),
                       [(i.node_offset, i.fraction)
                        for i in result.internals])
                assert got == clean[cell_id]
        assert degraded_somewhere
    finally:
        scheme.vpage_file.write_page(0, original)
        scheme.reset_runtime_state()
