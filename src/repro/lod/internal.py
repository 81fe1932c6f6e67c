"""Internal-LoD generation.

Paper, Section 5.1: "To generate internal LoDs, descendants of each
internal node are found.  For leaf nodes, the internal LoDs are generated
by aggregating the object models and running a polygon simplification
software ... Internal LoDs of nodes at higher levels are then generated
in a bottom-up order."

An internal LoD is itself a small chain (the paper's eq. 5 interpolates
between a node's highest and lowest internal LoD), built by simplifying
the aggregation of the node's children's representations to ``s`` times
their summed polygon count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.constants import DEFAULT_LOD_RATIO
from repro.errors import HDoVError
from repro.geometry.mesh import TriangleMesh
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.scene.objects import Scene
from repro.simplify.clustering import simplify_clustering
from repro.simplify.lod_chain import LODChain


@dataclass
class InternalLOD:
    """The internal LoD chain of one tree node plus bookkeeping."""

    node_offset: int
    chain: LODChain
    #: Summed finest polygon counts of the node's children — the
    #: denominator of the paper's ratio ``s``.
    child_polygons: int

    @property
    def ratio_s(self) -> float:
        """Achieved ``s = npoly(node) / sum(npoly(children))``."""
        if self.child_polygons == 0:
            return 0.0
        return self.chain.finest.num_faces / self.child_polygons

    @property
    def byte_size(self) -> int:
        return sum(self.chain.byte_sizes())


def build_internal_lods(tree: RTree, scene: Scene, *,
                        ratio_s: float = DEFAULT_LOD_RATIO,
                        levels: int = 2) -> Dict[int, InternalLOD]:
    """Build internal LoD chains for every node of ``tree``, bottom-up.

    Requires ``node.node_offset`` to be assigned (run after
    :meth:`repro.rtree.persist.NodeStore.write_tree` or assign offsets
    manually).  Returns a mapping node offset -> :class:`InternalLOD`.

    ``levels`` >= 2 gives each node a highest and lowest internal LoD for
    eq. 5 to interpolate between; the lowest is one further ``ratio_s``
    reduction of the highest.
    """
    if not 0.0 < ratio_s < 1.0:
        raise HDoVError(f"ratio_s must be in (0, 1), got {ratio_s}")
    if levels < 1:
        raise HDoVError(f"levels must be >= 1, got {levels}")

    result: Dict[int, InternalLOD] = {}
    # Bottom-up: process nodes by increasing level.
    nodes = sorted(tree.iter_nodes_dfs(), key=lambda n: n.level)
    for node in nodes:
        if node.node_offset is None:
            raise HDoVError("node offsets unassigned; persist the tree first")
        agg_mesh, child_polys = _aggregate(node, scene, result)
        target = max(int(child_polys * ratio_s), 4)
        highest = simplify_clustering(agg_mesh, target)
        chain_levels: List[TriangleMesh] = [highest]
        current = highest
        for _ in range(levels - 1):
            coarser_target = max(int(current.num_faces * ratio_s), 4)
            if coarser_target >= current.num_faces:
                chain_levels.append(current)
                continue
            current = simplify_clustering(current, coarser_target)
            chain_levels.append(current)
        result[node.node_offset] = InternalLOD(
            node_offset=node.node_offset,
            chain=LODChain(chain_levels),
            child_polygons=child_polys,
        )
    return result


def _aggregate(node: Node, scene: Scene,
               built: Dict[int, InternalLOD]):
    """The aggregation a node's internal LoD is simplified from.

    Leaf nodes aggregate their objects' finest meshes; internal nodes
    aggregate their children's already-built *highest internal LoDs*
    (bottom-up order guarantees availability), which keeps higher-level
    aggregations small.
    """
    if node.is_leaf:
        meshes = [scene.get(e.object_id).lods.finest  # type: ignore[arg-type]
                  for e in node.entries]
        child_polys = sum(m.num_faces for m in meshes)
    else:
        meshes = []
        child_polys = 0
        for child in node.children():
            child_lod = built.get(child.node_offset)
            if child_lod is None:
                raise HDoVError(
                    f"child offset {child.node_offset} not built yet "
                    f"(bottom-up order violated)")
            meshes.append(child_lod.chain.finest)
            child_polys += child_lod.chain.finest.num_faces
    if not meshes:
        raise HDoVError("cannot aggregate an empty node")
    return TriangleMesh.merge(meshes), child_polys
