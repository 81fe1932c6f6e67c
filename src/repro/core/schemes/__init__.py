"""The three V-page storage schemes of Section 4."""

from repro.core.schemes.base import (SegmentScheme, StorageBreakdown,
                                     StorageScheme)
from repro.core.schemes.horizontal import HorizontalScheme
from repro.core.schemes.vertical import VerticalScheme
from repro.core.schemes.indexed_vertical import IndexedVerticalScheme

SCHEME_CLASSES = {
    "horizontal": HorizontalScheme,
    "vertical": VerticalScheme,
    "indexed-vertical": IndexedVerticalScheme,
}

__all__ = ["StorageScheme", "SegmentScheme", "StorageBreakdown",
           "HorizontalScheme", "VerticalScheme", "IndexedVerticalScheme",
           "SCHEME_CLASSES"]
