"""Mesh simplification substrate.

Replaces the paper's use of the *qslim* binary [Garland & Heckbert 1997]
for LoD generation with uniform vertex clustering
(:func:`repro.simplify.clustering.simplify_clustering`): linear-time, and
used for object LoD chains and aggregated internal LoDs alike.
"""

from repro.simplify.clustering import simplify_clustering
from repro.simplify.lod_chain import LODChain, build_lod_chain

__all__ = ["simplify_clustering", "LODChain", "build_lod_chain"]
