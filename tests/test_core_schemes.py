"""Storage scheme tests: round trips, costs, paper storage formulas."""

import math

import pytest

from repro.constants import SIZE_INTEGER, SIZE_POINTER
from repro.core.schemes import (SCHEME_CLASSES, IndexedVerticalScheme,
                                VerticalScheme)
from repro.core.vpage import CellVPages
from repro.errors import PageCorruptError, SchemeError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.storage.disk import DiskModel, IOStats
from repro.storage.faults import FaultInjector
from repro.storage.pagedfile import PagedFile
from repro.storage.vpagecodec import PackedDeltaVPageCodec

NUM_NODES = 12
PAGE_SIZE = 512


def synthetic_cells(num_cells=4):
    """Cells where node offset o is visible in cell c iff (o + c) % 3 == 0
    (sparse visibility, like real scenes); entry counts differ per node
    to exercise layout variety."""
    cells = []
    for c in range(num_cells):
        pages = {}
        for offset in range(NUM_NODES):
            if (offset + c) % 3 == 0:
                count = 1 + offset % 3
                pages[offset] = [(0.1 * (i + 1) / count, i + 1)
                                 for i in range(count)]
        cells.append(CellVPages(cell_id=c, pages=pages))
    return cells


def layout_cells(num_cells=40):
    """Enough cells to fill index pages, with 12, 6, 4 or 3 of the 12
    nodes visible, so indexed-vertical segments differ in length and
    neighbouring segments share, fill and spill pages."""
    cells = []
    for c in range(num_cells):
        stride = 1 + c % 4
        pages = {offset: [(0.05 * (1 + (offset + c) % 7), 1 + offset % 3)]
                 for offset in range(NUM_NODES) if (offset + c) % stride == 0}
        cells.append(CellVPages(cell_id=c, pages=pages))
    return cells


#: Index page sizes the layout tests build at: segments share a page,
#: and (at 32 bytes) most segments need more than one.
INDEX_PAGE_SIZES = (PAGE_SIZE, 32)


def build_scheme(name, cells=None, packed=False, index_page_size=PAGE_SIZE):
    cells = cells if cells is not None else synthetic_cells()
    stats = IOStats()
    disk = DiskModel(seek_ms=10.0, transfer_ms=1.0, readahead_pages=1)
    vpf = PagedFile(f"{name}-v", page_size=PAGE_SIZE, disk=disk, stats=stats)
    cls = SCHEME_CLASSES[name]
    if name == "horizontal":
        scheme = cls(vpf)
    else:
        idx = PagedFile(f"{name}-i", page_size=index_page_size, disk=disk,
                        stats=stats)
        # Packed: cells in a row, each the reference candidate of the next.
        codec = PackedDeltaVPageCodec(
            PAGE_SIZE, {c.cell_id: [c.cell_id - 1, c.cell_id + 1]
                        for c in cells}, scheme=name) if packed else None
        scheme = cls(vpf, idx, codec=codec)
    scheme.build(NUM_NODES, cells)
    stats.reset()
    return scheme, stats, cells


@pytest.mark.parametrize("name", sorted(SCHEME_CLASSES))
class TestAllSchemes:
    def test_roundtrip_all_cells(self, name):
        scheme, _stats, cells = build_scheme(name)
        for cell in cells:
            scheme.flip_to_cell(cell.cell_id)
            for offset in range(NUM_NODES):
                expected = cell.pages.get(offset)
                got = scheme.ventries(offset)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert len(got) == len(expected)
                    for (dov, nvo), (gdov, gnvo) in zip(expected, got):
                        assert gnvo == nvo
                        assert gdov == pytest.approx(dov, abs=1e-6)

    def test_requires_flip_before_read(self, name):
        scheme, _stats, _cells = build_scheme(name)
        with pytest.raises(SchemeError):
            scheme.ventries(0)

    def test_rejects_bad_cell_and_offset(self, name):
        scheme, _stats, _cells = build_scheme(name)
        with pytest.raises(SchemeError):
            scheme.flip_to_cell(99)
        scheme.flip_to_cell(0)
        with pytest.raises(SchemeError):
            scheme.ventries(NUM_NODES + 5)

    def test_double_build_rejected(self, name):
        scheme, _stats, cells = build_scheme(name)
        with pytest.raises(SchemeError):
            scheme.build(NUM_NODES, cells)

    def test_flip_to_same_cell_free(self, name):
        scheme, stats, _cells = build_scheme(name)
        scheme.flip_to_cell(1)
        reads_after_first = stats.reads
        scheme.flip_to_cell(1)
        assert stats.reads == reads_after_first
        assert scheme.flips == 1


def assert_pairs_match_cell(scheme, cell, pairs):
    """``pairs`` list exactly the cell's visible nodes in DFS order, and
    every pointer leads to that node's V-entries."""
    assert [offset for offset, _ in pairs] == cell.visible_offsets_dfs()
    for offset, pointer in pairs:
        stored_offset, got = scheme.codec.read(pointer, scheme)
        assert stored_offset == offset
        expected = cell.ventries(offset)
        assert [nvo for _, nvo in got] == [nvo for _, nvo in expected]
        assert [dov for dov, _ in got] == pytest.approx(
            [dov for dov, _ in expected], abs=1e-3)


@pytest.mark.parametrize("packed", [False, True], ids=["raw", "packed"])
@pytest.mark.parametrize("name", ["vertical", "indexed-vertical"])
class TestSegmentContract:
    """The one segment path (``SegmentScheme``): what it writes, it
    reads and addresses — the same way under both segment encodings
    and both V-page codecs."""

    def test_cell_pointers_list_visible_nodes_in_dfs_order(self, name,
                                                           packed):
        scheme, _stats, cells = build_scheme(name, packed=packed)
        for cell in cells:
            assert_pairs_match_cell(scheme, cell,
                                    scheme.cell_pointers(cell.cell_id))
        assert scheme.total_vnodes == sum(len(c.pages)
                                          for c in cells)

    def test_flip_charges_segment_span(self, name, packed):
        """A flip charges exactly the ``_segment_span`` pages, and
        ``cell_pointers`` reads back the cell's V-entries — on shared
        pages, and on segments that span several."""
        for index_page_size in INDEX_PAGE_SIZES:
            scheme, stats, cells = build_scheme(
                name, layout_cells(), packed=packed,
                index_page_size=index_page_size)
            for cell in cells:
                _first_page, num_pages, _offset = scheme._segment_span(
                    cell.cell_id)
                assert stats.reads == 0            # pure addressing
                scheme.reset_runtime_state()
                scheme.flip_to_cell(cell.cell_id)
                assert stats.reads == num_pages
                assert_pairs_match_cell(scheme, cell,
                                        scheme.cell_pointers(cell.cell_id))
                stats.reset()

    def test_segments_are_packed_without_crossing_a_page(self, name,
                                                         packed):
        """A segment that fits in a page lies inside one; a larger one
        starts a page and takes the fewest pages it can.  Neighbours
        share pages, so the index file holds the formula's bytes rounded
        up per page (vertical: ``k`` fixed slots a page; indexed-vertical:
        each page filled in cell order until the next segment would
        cross it), plus the round-up of every multi-page segment."""
        for index_page_size in INDEX_PAGE_SIZES:
            scheme, _stats, cells = build_scheme(
                name, layout_cells(), packed=packed,
                index_page_size=index_page_size)
            pages, used = 0, index_page_size       # the model's layout
            for cell in cells:
                nbytes = segment_bytes(scheme, cell)
                first, count, offset = scheme._segment_span(cell.cell_id)
                if nbytes <= index_page_size:
                    assert count == 1
                    assert offset + nbytes <= index_page_size
                else:
                    assert offset == 0
                    assert count == math.ceil(nbytes / index_page_size)
                if used + nbytes > index_page_size:
                    pages, used = pages + count, 0
                used = (used + nbytes) if count == 1 else index_page_size
                assert (first, offset) == (
                    pages - count, used - nbytes if count == 1 else 0)
            formula = scheme.storage_breakdown().index_bytes
            assert scheme.index_file.num_pages == pages
            assert pages >= math.ceil(formula / index_page_size)
            if name == "vertical":
                slot = SIZE_POINTER * NUM_NODES
                per_page = index_page_size // slot
                assert pages == (math.ceil(len(cells) / per_page) if per_page
                                 else len(cells) * math.ceil(
                                     slot / index_page_size))
            if index_page_size == PAGE_SIZE:       # every segment fits
                assert pages < len(cells) // 4

    def test_build_writes_each_index_page_once(self, name, packed,
                                               monkeypatch):
        """The build stages the shared pages and writes each once, whole,
        without reading any back."""
        log = []
        for op in ("read_page", "read_run", "write_page", "write_run"):
            original = getattr(PagedFile, op)

            def recorded(self, page_id, *args, _op=op, _original=original):
                if self.name.endswith("-i"):
                    if _op == "write_run":
                        log.extend(("write_page", page_id + index)
                                   for index in range(len(args[0])))
                    else:
                        log.append((_op, page_id))
                return _original(self, page_id, *args)
            monkeypatch.setattr(PagedFile, op, recorded)
        for index_page_size in INDEX_PAGE_SIZES:
            log.clear()
            scheme, _stats, _cells = build_scheme(
                name, layout_cells(), packed=packed,
                index_page_size=index_page_size)
            assert log == [("write_page", page) for page
                           in range(scheme.index_file.num_pages)]

    def test_corrupt_index_page_fails_exactly_its_cells(self, name,
                                                        packed):
        """Segments share pages, so one page failing its CRC takes out
        every cell whose segment lies on it — up to ``k`` cells, the
        blast radius DESIGN.md §4 states — and no other.  A failed flip
        is what the search degrades (``_DEGRADABLE``); it leaves the
        previous cell loaded."""
        scheme, _stats, cells = build_scheme(name, layout_cells(),
                                             packed=packed)
        index = scheme.index_file
        page_of = {cell.cell_id: scheme._segment_span(cell.cell_id)[0]
                   for cell in cells}
        victim = page_of[len(cells) // 2]
        on_victim = {cell_id for cell_id, page in page_of.items()
                     if page == victim}
        assert 1 < len(on_victim) < len(cells)
        healthy = next(c for c in cells if c.cell_id not in on_victim)
        original = index._mem[victim]
        injector = FaultInjector(seed=0)    # no rules: CRCs checked only
        injector.install(index)
        failed = set()
        try:
            with use_registry(MetricsRegistry()):
                index._mem[victim] = bytes([original[0] ^ 1]) + original[1:]
                for cell in cells:
                    scheme.reset_runtime_state()
                    scheme.flip_to_cell(healthy.cell_id)
                    try:
                        scheme.flip_to_cell(cell.cell_id)
                    except PageCorruptError:
                        failed.add(cell.cell_id)
                        assert scheme.current_cell == healthy.cell_id
                        assert scheme.ventries(
                            healthy.visible_offsets_dfs()[0]) is not None
        finally:
            injector.uninstall()
        assert failed == on_victim

    def test_unknown_cell(self, name, packed):
        scheme, _stats, cells = build_scheme(name, packed=packed)
        unknown = len(cells) + 5
        with pytest.raises(SchemeError):
            scheme.flip_to_cell(unknown)
        with pytest.raises(SchemeError):
            scheme.cell_pointers(unknown)
        assert scheme.current_cell is None


def segment_bytes(scheme, cell):
    """Encoded length of the cell's segment under the scheme."""
    return len(scheme._encode_segment(
        [(offset, 0) for offset in cell.visible_offsets_dfs()]))


@pytest.mark.parametrize("name", ["vertical", "indexed-vertical"])
def test_segment_larger_than_its_vertical_slot_is_refused(name):
    """Only the vertical array has fixed slots, each the size of the
    build's segments: a larger segment is refused before an index page
    is taken, and the cell keeps its pairs; indexed-vertical places any
    length afresh."""
    scheme, _stats, cells = build_scheme(name, layout_cells())
    nbytes = segment_bytes(scheme, cells[0]) + SIZE_POINTER
    pages = scheme.index_file.num_pages
    if name == "vertical":
        with pytest.raises(SchemeError):
            scheme._place_segment(0, nbytes)
        assert scheme.index_file.num_pages == pages
        assert_pairs_match_cell(scheme, cells[0], scheme.cell_pointers(0))
        return
    first, offset = scheme._place_segment(0, nbytes)
    span_first, _count, span_offset = scheme._segment_span(0)
    assert (span_first, span_offset) == (first, offset)


def test_horizontal_vpage_access_is_one_page():
    scheme, stats, cells = build_scheme("horizontal")
    scheme.flip_to_cell(0)
    assert stats.reads == 0                 # flip is free
    scheme.ventries(0)
    assert stats.reads == 1                 # one V-page access


def test_horizontal_storage_formula():
    scheme, _stats, cells = build_scheme("horizontal")
    breakdown = scheme.storage_breakdown()
    assert breakdown.vpage_bytes == PAGE_SIZE * NUM_NODES * len(cells)
    assert breakdown.index_bytes == 0


def test_vertical_storage_formula():
    scheme, _stats, cells = build_scheme("vertical")
    breakdown = scheme.storage_breakdown()
    n_vnode_total = sum(len(c.pages) for c in cells)
    assert breakdown.vpage_bytes == PAGE_SIZE * n_vnode_total
    assert breakdown.index_bytes == SIZE_POINTER * NUM_NODES * len(cells)


def test_indexed_vertical_storage_formula():
    scheme, _stats, cells = build_scheme("indexed-vertical")
    breakdown = scheme.storage_breakdown()
    n_vnode_total = sum(len(c.pages) for c in cells)
    assert breakdown.vpage_bytes == PAGE_SIZE * n_vnode_total
    assert breakdown.index_bytes == (
        (SIZE_POINTER + SIZE_INTEGER) * n_vnode_total)


def test_storage_ordering_matches_paper():
    """Horizontal >> vertical > indexed-vertical (Table 2's ordering)."""
    sizes = {}
    for name in SCHEME_CLASSES:
        scheme, _stats, _cells = build_scheme(name)
        sizes[name] = scheme.storage_breakdown().total_bytes
    assert sizes["horizontal"] > sizes["vertical"]
    assert sizes["vertical"] > sizes["indexed-vertical"]


def test_vertical_flip_cost_scales_with_nodes():
    """O(N_node) flip: many nodes -> multi-page segment reads."""
    big_nodes = 2000
    cells = [CellVPages(cell_id=c, pages={0: [(0.5, 1)]}) for c in range(2)]
    stats = IOStats()
    disk = DiskModel(readahead_pages=1)
    vpf = PagedFile("v", page_size=PAGE_SIZE, disk=disk, stats=stats)
    idx = PagedFile("i", page_size=PAGE_SIZE, disk=disk, stats=stats)
    scheme = VerticalScheme(vpf, idx)
    scheme.build(big_nodes, cells)
    stats.reset()
    scheme.flip_to_cell(0)
    expected_pages = math.ceil(big_nodes * SIZE_POINTER / PAGE_SIZE)
    assert stats.reads == expected_pages
    assert expected_pages > 1


def test_indexed_vertical_flip_cost_scales_with_visible():
    """O(N_vnode) flip: huge trees with few visible nodes flip in 1 page."""
    big_nodes = 2000
    cells = [CellVPages(cell_id=c, pages={0: [(0.5, 1)]}) for c in range(2)]
    stats = IOStats()
    vpf = PagedFile("v", page_size=PAGE_SIZE, disk=DiskModel(), stats=stats)
    idx = PagedFile("i", page_size=PAGE_SIZE, disk=DiskModel(), stats=stats)
    scheme = IndexedVerticalScheme(vpf, idx)
    scheme.build(big_nodes, cells)
    stats.reset()
    scheme.flip_to_cell(0)
    assert stats.reads == 1


def test_vertical_vpages_dfs_contiguous_per_cell():
    """V-pages of one cell occupy one contiguous ascending run."""
    scheme, stats, cells = build_scheme("vertical")
    scheme.flip_to_cell(2)
    stats.reset()
    for offset in cells[2].visible_offsets_dfs():
        scheme.ventries(offset)
    # First access seeks; the rest are +1-sequential.
    assert stats.sequential_reads == len(cells[2].pages) - 1


def test_resident_bytes_ordering():
    """Vertical keeps N_node pointers resident; indexed only N_vnode."""
    vertical, _s1, cells = build_scheme("vertical")
    indexed, _s2, _c = build_scheme("indexed-vertical")
    horizontal, _s3, _c2 = build_scheme("horizontal")
    vertical.flip_to_cell(0)
    indexed.flip_to_cell(0)
    horizontal.flip_to_cell(0)
    assert vertical.resident_bytes() == SIZE_POINTER * NUM_NODES
    assert indexed.resident_bytes() == (
        (SIZE_POINTER + SIZE_INTEGER) * len(cells[0].pages))
    assert horizontal.resident_bytes() == 0


def test_empty_cells_rejected():
    for name in SCHEME_CLASSES:
        stats = IOStats()
        vpf = PagedFile("v", page_size=PAGE_SIZE, disk=DiskModel(),
                        stats=stats)
        cls = SCHEME_CLASSES[name]
        if name == "horizontal":
            scheme = cls(vpf)
        else:
            scheme = cls(vpf, PagedFile("i", page_size=PAGE_SIZE,
                                        disk=DiskModel(), stats=stats))
        with pytest.raises(SchemeError):
            scheme.build(NUM_NODES, [])
