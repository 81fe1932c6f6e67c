"""Count budget of the set-up path (also run by CI's ``perf-smoke``).

Not a timing test: each check counts work a build must do once, so that
a refactor which brings the repeat back fails here rather than in a
benchmark run.  Building the conftest world

* constructs at most one ``TriangleMesh`` per ``simplify_clustering``
  call, however many grid resolutions the search rejects;
* encodes at most one all-zero horizontal V-page per node;
* looks each ``vpage_*`` counter up at most once per packed codec and
  registry (four lookups), and counts into the ``vpage_*`` series what
  the per-record lookups counted;
* encodes each visible raw V-page once, however many raw schemes store
  it, and writes each V-page file with one ``pageio.write_run``;
* and a second build over the same scene and visibility table builds no
  mesh, tree or V-page again.
"""

import gc
import weakref
from collections import Counter

from repro.core import hdov_tree
from repro.core.hdov_tree import HDoVConfig, build_environment
from repro.geometry.mesh import TriangleMesh
from repro.lod import internal
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.scene.city import generate_city
from repro.simplify import clustering, lod_chain
from repro.storage import pageio
from repro.storage.vpagecodec import PackedDeltaVPageCodec, RawVPageCodec
from repro.visibility.cells import CellGrid
from repro.visibility.precompute import precompute_visibility
from tests.conftest import SMALL_CITY

ALL_SCHEMES = ("horizontal", "vertical", "indexed-vertical")

#: The ``vpage_*`` series of the conftest world built with packed
#: V-pages, recorded with one registry lookup per record.
VPAGE_SERIES = {
    f'{name}{{scheme="{scheme}"}}': value
    for scheme in ("vertical", "indexed-vertical")
    for name, value in (("vpage_encoded_bytes_total", 4727.0),
                        ("vpage_raw_bytes_total", 630784.0),
                        ("vpage_records_delta_total", 43.0),
                        ("vpage_records_self_total", 111.0))}

VPAGE_NAMES = {names.VPAGE_RECORDS_SELF, names.VPAGE_RECORDS_DELTA,
               names.VPAGE_RAW_BYTES, names.VPAGE_ENCODED_BYTES}


def test_building_the_conftest_world_stays_within_budget(monkeypatch):
    meshes = Counter()           # TriangleMesh constructions per call
    tries = []                   # resolutions the searches tried
    real_init = TriangleMesh.__init__
    monkeypatch.setattr(
        TriangleMesh, "__init__",
        lambda self, *args, **kwargs: meshes.update(["built"])
        or real_init(self, *args, **kwargs))
    real_cluster = clustering._cluster
    monkeypatch.setattr(
        clustering, "_cluster",
        lambda mesh, box, resolution, target:
        tries.append(resolution)
        or real_cluster(mesh, box, resolution, target))

    def counted(mesh, target):
        before = meshes["built"]
        out = clustering.simplify_clustering(mesh, target)
        meshes["calls"] += 1
        meshes["max_per_call"] = max(meshes["max_per_call"],
                                     meshes["built"] - before)
        return out

    for module in (lod_chain, internal):
        monkeypatch.setattr(module, "simplify_clustering", counted)

    zero_encodes = []
    real_encode = RawVPageCodec.encode_page
    monkeypatch.setattr(
        RawVPageCodec, "encode_page",
        lambda self, offset, ventries, page_size:
        zero_encodes.extend([offset] if all(d == 0.0 for d, _ in ventries)
                            else [])
        or real_encode(self, offset, ventries, page_size))

    lookups = Counter()
    real_counter = MetricsRegistry.counter
    monkeypatch.setattr(
        MetricsRegistry, "counter",
        lambda self, name, **labels: lookups.update(
            [(id(self), labels.get("scheme"))] if name in VPAGE_NAMES
            else []) or real_counter(self, name, **labels))

    writes = count_page_writes(monkeypatch)
    scene = generate_city(SMALL_CITY)
    grid = CellGrid.covering(scene.bounds(), cell_size=120.0)
    with use_registry() as registry:
        env = build_environment(scene, grid, HDoVConfig(
            dov_resolution=16, compress_vpages=True,
            schemes=ALL_SCHEMES))

    # The searches rejected resolutions, and built no mesh for them.
    assert meshes["calls"] > 0 and len(tries) > meshes["calls"]
    assert meshes["max_per_call"] == 1
    horizontal = env.schemes["horizontal"]
    assert 0 < len(zero_encodes) <= horizontal.num_nodes
    assert len(set(zero_encodes)) == len(zero_encodes)
    assert lookups == {(id(registry), "vertical"): 4,
                       (id(registry), "indexed-vertical"): 4}
    for pfile in env.files():
        assert writes[pfile.name, "write_page"] == 0
        if pfile.name.startswith("vpages-"):
            assert writes[pfile.name, "runs"] == 1
    # A build that computes its own table shares nothing.
    assert env.visibility not in hdov_tree._SHARED
    assert {key: value for key, value in registry.collect().items()
            if key.startswith("vpage_")} == VPAGE_SERIES


def count_page_writes(monkeypatch):
    """``pageio`` writes per file name: ``(runs, pages in them, one-page
    writes)``."""
    writes = Counter()
    real_run, real_page = pageio.write_run, pageio.write_page

    def write_run(pfile, first_page, images, *, component):
        writes[pfile.name, "runs"] += 1
        writes[pfile.name, "pages"] += len(images)
        return real_run(pfile, first_page, images, component=component)

    def write_page(pfile, page_id, data, *, component):
        writes[pfile.name, "write_page"] += 1
        return real_page(pfile, page_id, data, component=component)

    monkeypatch.setattr(pageio, "write_run", write_run)
    monkeypatch.setattr(pageio, "write_page", write_page)
    return writes


def test_raw_schemes_share_each_encode_and_a_rebuild_shares_the_products(
        monkeypatch):
    scene = generate_city(SMALL_CITY)
    grid = CellGrid.covering(scene.bounds(), cell_size=120.0)
    table = precompute_visibility(scene, grid, resolution=16)
    encodes = Counter()
    real_encode = RawVPageCodec.encode_page
    monkeypatch.setattr(
        RawVPageCodec, "encode_page",
        lambda self, offset, ventries, page_size:
        encodes.update(["zero" if all(d == 0.0 for d, _ in ventries)
                        else "visible"])
        or real_encode(self, offset, ventries, page_size))
    writes = count_page_writes(monkeypatch)
    raw = build_environment(scene, grid, HDoVConfig(
        dov_resolution=16, schemes=ALL_SCHEMES), visibility=table)

    visible = sum(len(cell.pages) for cell in raw.cell_vpages)
    assert encodes["visible"] == visible          # not 3 x visible
    assert encodes["zero"] <= raw.node_store.num_nodes
    for scheme in raw.schemes.values():
        name = scheme.vpage_file.name
        assert writes[name, "runs"] == 1
        assert writes[name, "pages"] == scheme.vpage_file.num_pages
        assert writes[name, "write_page"] == 0

    # A second build over the same scene and table: nothing view-
    # invariant is built again, and its own files are still written.
    built = Counter()
    real_init = TriangleMesh.__init__
    monkeypatch.setattr(
        TriangleMesh, "__init__",
        lambda self, *args, **kwargs: built.update(["mesh"])
        or real_init(self, *args, **kwargs))
    for name in ("str_bulk_load", "instantiate_cells",
                 "build_internal_lods"):
        real = getattr(hdov_tree, name)
        monkeypatch.setattr(
            hdov_tree, name, lambda *args, _name=name, _real=real,
            **kwargs: built.update([_name]) or _real(*args, **kwargs))
    writes.clear()
    packed = build_environment(scene, grid, HDoVConfig(
        dov_resolution=16, schemes=ALL_SCHEMES[1:], compress_vpages=True),
        visibility=table)
    assert built == Counter()
    assert packed.tree is raw.tree
    assert packed.cell_vpages is raw.cell_vpages
    assert packed.node_store is not raw.node_store
    assert writes["tree", "runs"] == 1
    for scheme in packed.schemes.values():
        assert writes[scheme.vpage_file.name, "runs"] == 1

    # The shared products live exactly as long as the table.
    assert table in hdov_tree._SHARED
    table_ref = weakref.ref(table)
    del raw, packed, table
    gc.collect()
    assert table_ref() is None


def test_packed_codec_rebinds_its_handles_after_a_registry_swap():
    """Records appended under each registry are counted in that one, and
    a kind is created only once a record of it is appended."""
    codec = PackedDeltaVPageCodec(64, {0: [1], 1: [0]}, scheme="swap")
    first, second = MetricsRegistry(), MetricsRegistry()
    entries = [(0.5, 3), (0.25, 1), (0.0, 0), (1.0, 7)]
    with use_registry(first):
        codec.begin_cell(0)
        codec.append(None, 0, 0, entries)
    with use_registry(second):
        codec.begin_cell(1)
        codec.append(None, 1, 0, entries[:3] + [(0.75, 7)])
    assert (codec.self_records, codec.delta_records) == (1, 1)
    for registry, kind in ((first, "self"), (second, "delta")):
        series = registry.collect()
        assert sorted(series) == sorted([
            'vpage_encoded_bytes_total{scheme="swap"}',
            'vpage_raw_bytes_total{scheme="swap"}',
            f'vpage_records_{kind}_total{{scheme="swap"}}'])
        assert series['vpage_raw_bytes_total{scheme="swap"}'] == 64.0
        assert series[f'vpage_records_{kind}_total{{scheme="swap"}}'] == 1.0
    assert (first.total(names.VPAGE_ENCODED_BYTES)
            + second.total(names.VPAGE_ENCODED_BYTES)
            == len(codec._stream))
