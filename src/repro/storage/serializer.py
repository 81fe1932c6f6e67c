"""Struct-based record serialization for pages.

All on-page records in this library go through these helpers so the byte
layouts live in one place: R-tree nodes, V-pages, V-page-index segments,
and object-store headers.  Layouts use little-endian fixed-width fields.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError, SerializationError
from repro.geometry.aabb import AABB

#: Node header: kind (u8), entry count (u16), level (u8), vindex offset (u32)
_NODE_HEADER = struct.Struct("<BHBI")
#: Node entry: MBR + child/object id (u32) + lod pointer (u32)
_NODE_ENTRY = struct.Struct("<6fII")
#: The same record as a structured dtype, for reading a node's whole
#: entry block as one array view.
_NODE_ENTRY_DTYPE = np.dtype([("mbr", "<f4", (6,)), ("target", "<u4"),
                              ("lod_ptr", "<u4")])
#: V-entry: DoV (f32) + NVO (u32)  — Section 3.3's VD = (DoV, NVO)
_VENTRY = struct.Struct("<fI")
#: V-page header: node offset (u32) + entry count (u16) + pad (u16)
_VPAGE_HEADER = struct.Struct("<IHH")
#: Index pair: node offset (u32) + V-page pointer (u32)
_INDEX_PAIR = struct.Struct("<II")

NODE_HEADER_SIZE = _NODE_HEADER.size
NODE_ENTRY_SIZE = _NODE_ENTRY.size
VENTRY_SIZE = _VENTRY.size
VPAGE_HEADER_SIZE = _VPAGE_HEADER.size
INDEX_PAIR_SIZE = _INDEX_PAIR.size

#: Sentinel for "no pointer" in u32 pointer fields.
NIL = 0xFFFFFFFF


def encode_node(kind: int, level: int, vindex_offset: int,
                entries: Sequence[Tuple[AABB, int, int]],
                page_size: int) -> bytes:
    """Serialize an R-tree/HDoV node.

    ``entries`` are ``(mbr, child_or_object_id, lod_pointer)`` triples.
    Raises :class:`SerializationError` if the node does not fit the page.
    """
    needed = NODE_HEADER_SIZE + len(entries) * NODE_ENTRY_SIZE
    if needed > page_size:
        raise SerializationError(
            f"node with {len(entries)} entries needs {needed} bytes, "
            f"page is {page_size}")
    parts = [_NODE_HEADER.pack(kind, len(entries), level, vindex_offset)]
    for mbr, child_id, lod_ptr in entries:
        parts.append(_NODE_ENTRY.pack(
            *mbr.lo.astype(np.float32), *mbr.hi.astype(np.float32),
            child_id, lod_ptr))
    return b"".join(parts)


class NodeEntries:
    """Columnar entry block of one decoded node.

    The on-disk form is an array of ``(MBR, id, lod pointer)`` records;
    in memory the three fields are separate columns, so a traversal that
    only needs the ids never touches — let alone validates one by one —
    the MBRs.  ``mbrs`` is a read-only float64 ``(n, 6)`` array of
    ``lo.xyz, hi.xyz`` rows; ``targets`` and ``lod_ptrs`` are tuples of
    ``int``.  Immutable, so one instance can be shared between sessions
    (it rides on buffer-pool frames).

    Iterating or indexing yields ``(mbr row, target, lod pointer)``.
    """

    __slots__ = ("mbrs", "targets", "lod_ptrs")

    def __init__(self, mbrs: np.ndarray, targets: Tuple[int, ...],
                 lod_ptrs: Tuple[int, ...]) -> None:
        self.mbrs = mbrs
        self.targets = targets
        self.lod_ptrs = lod_ptrs

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int, int]:
        return self.mbrs[index], self.targets[index], self.lod_ptrs[index]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, int, int]]:
        return zip(self.mbrs, self.targets, self.lod_ptrs)


def decode_node(data: bytes) -> Tuple[int, int, int, NodeEntries]:
    """Inverse of :func:`encode_node`; returns
    ``(kind, level, vindex_offset, entries)`` with the entries as
    columns.

    Every MBR is held to what :class:`~repro.geometry.aabb.AABB`
    enforces on construction — all components finite, ``lo <= hi`` —
    checked as one mask over the node instead of once per entry.
    """
    if len(data) < NODE_HEADER_SIZE:
        raise SerializationError("page too small for a node header")
    kind, count, level, vindex_offset = _NODE_HEADER.unpack_from(data, 0)
    if NODE_HEADER_SIZE + count * NODE_ENTRY_SIZE > len(data):
        raise SerializationError("truncated node entry")
    block = np.frombuffer(data, dtype=_NODE_ENTRY_DTYPE, count=count,
                          offset=NODE_HEADER_SIZE)
    mbrs = block["mbr"].astype(np.float64)
    ordered = mbrs[:, :3] <= mbrs[:, 3:]
    if not (np.isfinite(mbrs).all() and ordered.all()):
        valid = np.isfinite(mbrs).all(axis=1) & ordered.all(axis=1)
        bad = int(np.argmin(valid))
        raise GeometryError(
            f"node entry {bad}: MBR {mbrs[bad]} has a non-finite "
            f"component or lo exceeding hi")
    mbrs.setflags(write=False)
    return kind, level, vindex_offset, NodeEntries(
        mbrs, tuple(block["target"].tolist()),
        tuple(block["lod_ptr"].tolist()))


def encode_vpage(node_offset: int, ventries: Sequence[Tuple[float, int]],
                 page_size: int) -> bytes:
    """Serialize a V-page: header plus ``(DoV, NVO)`` per tree-node entry."""
    needed = VPAGE_HEADER_SIZE + len(ventries) * VENTRY_SIZE
    if needed > page_size:
        raise SerializationError(
            f"V-page with {len(ventries)} entries needs {needed} bytes, "
            f"page is {page_size}")
    parts = [_VPAGE_HEADER.pack(node_offset, len(ventries), 0)]
    for dov, nvo in ventries:
        if not 0.0 <= dov <= 1.0:
            raise SerializationError(f"DoV out of [0, 1]: {dov}")
        if nvo < 0:
            raise SerializationError(f"negative NVO: {nvo}")
        parts.append(_VENTRY.pack(dov, nvo))
    return b"".join(parts)


def decode_vpage(data: bytes) -> Tuple[int, Tuple[Tuple[float, int], ...]]:
    """Inverse of :func:`encode_vpage`; returns ``(node_offset, ventries)``.

    The V-entries come back as a tuple: a decoded page is shared between
    sessions through the buffer pool and must not be mutable.
    """
    if len(data) < VPAGE_HEADER_SIZE:
        raise SerializationError("page too small for a V-page header")
    node_offset, count, _pad = _VPAGE_HEADER.unpack_from(data, 0)
    end = VPAGE_HEADER_SIZE + count * VENTRY_SIZE
    if end > len(data):
        raise SerializationError("truncated V-entry")
    return node_offset, tuple(
        _VENTRY.iter_unpack(data[VPAGE_HEADER_SIZE:end]))


def encode_index_pairs(pairs: Sequence[Tuple[int, int]]) -> bytes:
    """Serialize (node offset, V-page pointer) pairs for the
    indexed-vertical scheme's per-cell segment."""
    return b"".join(_INDEX_PAIR.pack(off, ptr) for off, ptr in pairs)


def decode_index_pairs(data: bytes, count: int) -> List[Tuple[int, int]]:
    if count * INDEX_PAIR_SIZE > len(data):
        raise SerializationError("truncated index-pair segment")
    return [_INDEX_PAIR.unpack_from(data, i * INDEX_PAIR_SIZE)
            for i in range(count)]


def encode_pointer_array(pointers: Sequence[int]) -> bytes:
    """Serialize a dense u32 pointer array (vertical scheme segment)."""
    return struct.pack(f"<{len(pointers)}I", *pointers)


def decode_pointer_array(data: bytes, count: int) -> List[int]:
    if count * 4 > len(data):
        raise SerializationError("truncated pointer array")
    return list(struct.unpack_from(f"<{count}I", data, 0))
