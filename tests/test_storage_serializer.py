"""Serializer round-trip tests, including property-based ones."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import PAGE_SIZE
from repro.errors import GeometryError, SerializationError
from repro.geometry.aabb import AABB
from repro.rtree.persist import persisted_node
from repro.storage import serializer as ser


def box(lo, hi):
    return AABB(np.asarray(lo, float), np.asarray(hi, float))


def test_node_roundtrip():
    entries = [(box((0, 0, 0), (1, 1, 1)), 7, 99),
               (box((2, 2, 2), (3, 3, 3)), 8, ser.NIL)]
    data = ser.encode_node(1, 2, 42, entries, PAGE_SIZE)
    kind, level, offset, decoded = ser.decode_node(data)
    assert (kind, level, offset) == (1, 2, 42)
    assert len(decoded) == 2
    assert decoded[0][1] == 7
    assert decoded[0][2] == 99
    assert decoded[1][2] == ser.NIL
    assert np.allclose(decoded.mbrs[1, :3], (2, 2, 2), atol=1e-6)


def test_node_roundtrip_through_columns_and_aabb_accessor():
    entries = [(box((0, -1, 0.5), (1, 1, 1.5)), 7, 99),
               (box((2, 2, 2), (3, 4, 5)), 8, ser.NIL),
               (box((-9, -9, -9), (-9, -9, -9)), 0, 3)]
    decoded = ser.decode_node(ser.encode_node(0, 1, 42, entries, PAGE_SIZE))
    columns = decoded[3]
    assert columns.targets == (7, 8, 0)
    assert columns.lod_ptrs == (99, ser.NIL, 3)
    assert columns.mbrs.shape == (3, 6)
    assert columns.mbrs.dtype == np.float64
    assert not columns.mbrs.flags.writeable
    assert [(t, p) for _row, t, p in columns] == [(7, 99), (8, ser.NIL),
                                                   (0, 3)]
    node = persisted_node(5, 42, decoded)
    assert (node.page_id, node.kind, node.level, node.node_offset) \
        == (5, 0, 1, 42)
    assert node.targets == columns.targets
    assert node.lod_ptrs == columns.lod_ptrs
    for index, (mbr, _target, _ptr) in enumerate(entries):
        assert np.allclose(node.mbrs[index, :3], mbr.lo, atol=1e-6)
        assert np.allclose(node.mbrs[index, 3:], mbr.hi, atol=1e-6)
        assert np.array_equal(node.entries[index][0], columns.mbrs[index])


def test_empty_node_roundtrip():
    _kind, _level, _offset, columns = ser.decode_node(
        ser.encode_node(0, 0, 0, [], PAGE_SIZE))
    assert len(columns) == 0
    assert columns.targets == () and columns.lod_ptrs == ()
    assert columns.mbrs.shape == (0, 6)


def node_page(count, *records):
    """A hand-packed node page: header claiming ``count`` entries, then
    the given ``(lo.xyz, hi.xyz, id, ptr)`` records."""
    return struct.pack("<BHBI", 0, count, 0, 0) + b"".join(
        struct.pack("<6fII", *lo, *hi, ident, ptr)
        for lo, hi, ident, ptr in records)


def test_node_count_overrunning_the_buffer_rejected():
    good = ((0, 0, 0), (1, 1, 1), 1, 2)
    with pytest.raises(SerializationError, match="truncated node entry"):
        ser.decode_node(node_page(3, good, good))
    # One byte short of the last entry is still truncated.
    with pytest.raises(SerializationError, match="truncated node entry"):
        ser.decode_node(node_page(2, good, good)[:-1])
    assert len(ser.decode_node(node_page(2, good, good))[3]) == 2


@pytest.mark.parametrize("lo, hi", [
    ((0, float("nan"), 0), (1, 1, 1)),
    ((0, 0, 0), (1, float("inf"), 1)),
    ((float("-inf"), 0, 0), (1, 1, 1)),
    ((0, 0, 2), (1, 1, 1)),
])
def test_node_with_bad_mbr_rejected(lo, hi):
    """The two checks AABB construction makes — finite components,
    lo <= hi — still refuse the page, with the same typed error."""
    good = ((0, 0, 0), (1, 1, 1), 1, 2)
    with pytest.raises(GeometryError):
        AABB(np.asarray(lo, float), np.asarray(hi, float))
    for records in ([(lo, hi, 7, 8)], [good, (lo, hi, 7, 8), good]):
        with pytest.raises(GeometryError):
            ser.decode_node(node_page(len(records), *records))


def test_node_overflow_rejected():
    entries = [(box((0, 0, 0), (1, 1, 1)), 0, 0)] * 200
    with pytest.raises(SerializationError):
        ser.encode_node(0, 0, 0, entries, 256)


def test_node_truncated_rejected():
    with pytest.raises(SerializationError):
        ser.decode_node(b"\x00")


def test_vpage_truncated_rejected():
    data = ser.encode_vpage(5, [(0.25, 3), (0.5, 1)], PAGE_SIZE)
    with pytest.raises(SerializationError, match="V-page header"):
        ser.decode_vpage(data[:4])
    with pytest.raises(SerializationError, match="truncated V-entry"):
        ser.decode_vpage(data[:-1])


def test_vpage_decodes_to_immutable_tuples():
    _offset, decoded = ser.decode_vpage(
        ser.encode_vpage(5, [(0.25, 3), (0.5, 1)], PAGE_SIZE))
    assert decoded == ((0.25, 3), (0.5, 1))
    assert isinstance(decoded, tuple)


def test_vpage_roundtrip():
    ventries = [(0.25, 3), (0.0, 0), (1.0, 17)]
    data = ser.encode_vpage(5, ventries, PAGE_SIZE)
    offset, decoded = ser.decode_vpage(data)
    assert offset == 5
    assert decoded[1] == (0.0, 0)
    assert decoded[2][1] == 17
    assert decoded[0][0] == pytest.approx(0.25)


def test_vpage_rejects_bad_dov():
    with pytest.raises(SerializationError):
        ser.encode_vpage(0, [(1.5, 1)], PAGE_SIZE)
    with pytest.raises(SerializationError):
        ser.encode_vpage(0, [(-0.1, 1)], PAGE_SIZE)


def test_index_pairs_roundtrip():
    pairs = [(0, 10), (5, 20), (9, ser.NIL)]
    data = ser.encode_index_pairs(pairs)
    assert ser.decode_index_pairs(data, 3) == pairs
    with pytest.raises(SerializationError):
        ser.decode_index_pairs(data, 10)


def test_pointer_array_roundtrip():
    pointers = [1, ser.NIL, 3, 0]
    data = ser.encode_pointer_array(pointers)
    assert ser.decode_pointer_array(data, 4) == pointers
    with pytest.raises(SerializationError):
        ser.decode_pointer_array(data, 8)


finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


@given(st.lists(st.tuples(
    st.tuples(finite, finite, finite),
    st.tuples(finite, finite, finite),
    st.integers(0, 2 ** 32 - 1),
    st.integers(0, 2 ** 32 - 1)), min_size=0, max_size=20))
def test_node_roundtrip_property(raw_entries):
    entries = []
    for a, b, child, ptr in raw_entries:
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        entries.append((AABB(lo, hi), child, ptr))
    data = ser.encode_node(0, 3, 11, entries, PAGE_SIZE)
    _kind, _level, _offset, decoded = ser.decode_node(data)
    assert len(decoded) == len(entries)
    for (mbr, child, ptr), (dmbr, dchild, dptr) in zip(entries, decoded):
        assert dchild == child
        assert dptr == ptr
        assert np.allclose(dmbr[:3], mbr.lo, rtol=1e-5, atol=1e-2)


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 10 ** 6)),
                min_size=0, max_size=50))
def test_vpage_roundtrip_property(ventries):
    data = ser.encode_vpage(1, ventries, PAGE_SIZE)
    _offset, decoded = ser.decode_vpage(data)
    assert len(decoded) == len(ventries)
    for (dov, nvo), (ddov, dnvo) in zip(ventries, decoded):
        assert dnvo == nvo
        assert ddov == pytest.approx(dov, abs=1e-6)
