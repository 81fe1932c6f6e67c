"""Incremental updates to a built HDoV environment.

The paper's environments are static — visibility is precomputed once.
A dynamic virtual environment (objects removed at runtime: a demolished
building, a despawned model) needs the preprocessing to update
incrementally rather than rebuild.  This module implements object
removal over the indexed-vertical scheme:

1. the object's leaf entry is dropped from the in-memory tree and the
   affected node pages are rewritten;
2. every cell that could *see* the object gets its DoV recomputed (the
   removal can only reveal previously-occluded objects in those cells,
   so other cells are untouched — a conservative and exact bound,
   because a cell where the object was invisible has no ray whose
   nearest hit was the object);
3. the cells' V-pages are re-instantiated and handed to the scheme's
   one segment writer (``write_cell``): fresh V-pages and a fresh
   segment are appended and the cell repointed (the old pages become
   garbage; nothing reclaims them).

Every refusal — unknown object, a scheme other than indexed-vertical, a
packed V-page codec — is raised before the first mutation, so a refused
call leaves the environment exactly as it was.

The search layer needs no change: queries against updated cells read
the new segments transparently.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.hdov_tree import HDoVEnvironment
from repro.core.schemes.indexed_vertical import IndexedVerticalScheme
from repro.core.vpage import instantiate_cells
from repro.errors import HDoVError
from repro.rtree.delete import delete as rtree_delete
from repro.visibility.dov import CellVisibility
from repro.visibility.raycast import RayCastDoVEstimator


def affected_cells(env: HDoVEnvironment, object_id: int) -> List[int]:
    """Cells whose visibility can change when ``object_id`` disappears:
    exactly those where it was visible (DoV > 0)."""
    return [cell_id for cell_id in env.grid.cell_ids()
            if env.visibility.cell(cell_id).get(object_id) > 0.0]


def remove_object(env: HDoVEnvironment, object_id: int, *,
                  scheme_name: str = "indexed-vertical",
                  estimator: Optional[RayCastDoVEstimator] = None
                  ) -> List[int]:
    """Remove an object from a built environment, updating the tree,
    the visibility table, and the storage scheme in place.

    Returns the list of cells whose visibility data was recomputed.
    Only the indexed-vertical scheme over the raw V-page codec supports
    in-place updates: its per-cell segments are variable-length and
    directory-addressed, and a raw V-page file can grow, whereas the
    packed stream is closed once per build.  Anything else is refused
    before the environment is touched.
    """
    record = env.objects.get(object_id)
    if record is None:
        raise HDoVError(f"unknown object id {object_id}")
    scheme = env.scheme(scheme_name)
    if not isinstance(scheme, IndexedVerticalScheme):
        raise HDoVError(
            f"incremental updates need the indexed-vertical scheme, "
            f"got {scheme.name!r}")
    if scheme.codec.packed:
        raise HDoVError(
            f"incremental update needs the raw V-page codec, scheme "
            f"uses {type(scheme.codec).__name__}")

    cells_to_update = affected_cells(env, object_id)

    # 1. Structural removal.
    mbr = record.chain.finest.aabb()
    if not rtree_delete(env.tree, mbr, object_id):
        # The MBR stored in the chain must match the inserted one.
        raise HDoVError(f"object {object_id} not found in the tree")
    _reassign_offsets_and_rewrite(env)
    del env.objects[object_id]
    # Scene container is append-only (env.scene stays authoritative for
    # history, earlier removals included); the estimator sees only the
    # objects still in the environment.
    remaining = [obj for obj in env.scene if obj.object_id in env.objects]
    if estimator is None:
        from repro.geometry.aabb import pack_aabbs
        boxes = pack_aabbs([o.lods.finest.aabb() for o in remaining])
        estimator = RayCastDoVEstimator(
            boxes, object_ids=[o.object_id for o in remaining],
            resolution=env.config.dov_resolution)

    # 2. Recompute visibility for affected cells only.
    for cell_id in cells_to_update:
        viewpoints = env.grid.sample_viewpoints(
            cell_id, samples=env.config.samples_per_cell)
        dov = estimator.dov_from_region(viewpoints)
        cell = CellVisibility(cell_id)
        for oid, value in dov.items():
            cell.set(oid, value)
        env.visibility.put(cell)

    # 3. Re-instantiate and rewrite *every* cell, not only the affected
    # ones: the DFS rewrite renumbered the nodes, so an unaffected
    # cell's visible set is unchanged but its node offsets are not.
    env.cell_vpages = instantiate_cells(
        env.tree, (env.visibility.cell(cell_id)
                   for cell_id in env.grid.cell_ids()))
    scheme.num_nodes = env.node_store.num_nodes
    for cell_vp in env.cell_vpages:
        scheme.write_cell(cell_vp)
    if scheme.current_cell is not None:
        # Force a reload of the rewritten current segment.
        reload_cell = scheme.current_cell
        scheme.current_cell = None
        scheme.flip_to_cell(reload_cell)

    # 4. Refresh derived metadata.
    from repro.core.hdov_tree import _collect_descendants
    env.descendants = _collect_descendants(env.tree)
    return cells_to_update


def _reassign_offsets_and_rewrite(env: HDoVEnvironment) -> None:
    """Re-persist the tree after a structural change.

    Node offsets are DFS indices; deletion changes the node set, so the
    whole tree file is rewritten (node counts are small — hundreds —
    next to the V-page data).  Internal-LoD records are remapped to the
    surviving nodes by identity where possible.
    """
    # Capture old offsets before renumbering to remap internal LoDs.
    old_offsets = {id(node): node.node_offset
                   for node in env.tree.iter_nodes_dfs()}
    from repro.rtree.persist import NodeStore
    from repro.storage.pagedfile import PagedFile
    tree_file = PagedFile("tree-updated", page_size=env.config.page_size,
                          disk=env.node_store.pfile.disk,
                          stats=env.light_stats)
    store = NodeStore(tree_file)
    lod_pointers = {oid: rec.blob_id for oid, rec in env.objects.items()}
    store.write_tree(env.tree, lod_pointers)
    remapped = {}
    for node in env.tree.iter_nodes_dfs():
        old = old_offsets.get(id(node))
        if old is not None and old in env.internals:
            record = env.internals[old]
            record.node_offset = node.node_offset
            remapped[node.node_offset] = record
    env.internals = remapped
    env.node_store = store
