"""R-tree substrate (Guttman 1984), built by STR packing.

The HDoV-tree uses the R-tree as its spatial backbone (paper, Section 3.2),
and the REVIEW baseline issues window queries against the same structure.
The implementation here is an in-memory tree built by STR bulk loading,
with window query, plus a persistence layer that writes nodes to pages with
DFS ordering so downstream layers get on-page node offsets.
"""

from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.rtree.bulk import str_bulk_load

__all__ = ["Entry", "Node", "RTree", "str_bulk_load"]
