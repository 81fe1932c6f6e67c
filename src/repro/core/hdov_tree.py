"""HDoV-tree build pipeline and the environment bundle.

Mirrors the paper's preprocessing (Section 5.1):

1. build an R-tree over the object MBRs (STR packing);
2. persist the tree to pages (assigning DFS node offsets);
3. generate internal LoDs bottom-up and store them (plus the object LoD
   chains) in the blob object store;
4. run the conservative visibility algorithm per cell and the DoV
   estimator on the visible sets;
5. instantiate per-cell V-pages and lay them out under one or more of
   the three storage schemes.

The result is an :class:`HDoVEnvironment`: everything a search algorithm,
baseline, or experiment needs, with I/O accounting split into
*light-weight* (tree nodes, V-pages, index segments) and *heavy-weight*
(model data) stats — the distinction Figure 8 plots.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import BYTES_PER_POLYGON, PAGE_SIZE
from repro.core.schemes import SCHEME_CLASSES, StorageScheme
from repro.core.vpage import CellVPages, instantiate_cells
from repro.errors import HDoVError
from repro.lod.internal import InternalLOD, build_internal_lods
from repro.rtree.bulk import str_bulk_load
from repro.rtree.node import Node
from repro.rtree.persist import NodeStore
from repro.rtree.tree import RTree
from repro.scene.objects import Scene
from repro.simplify.lod_chain import LODChain
from repro.storage.disk import DiskModel, IOStats
from repro.storage.objectstore import ObjectStore, SharedModels
from repro.storage.pagedfile import PagedFile
from repro.storage.vpagecodec import PackedDeltaVPageCodec, VPageCodec
from repro.visibility.cells import CellGrid
from repro.visibility.dov import VisibilityTable
from repro.visibility.precompute import precompute_visibility


@dataclass(frozen=True)
class HDoVConfig:
    """Build-time parameters of an HDoV environment.

    The tree's fanout and fill, the internal-LoD ratio ``s`` and the
    disk model are library constants (``repro.constants``,
    :class:`~repro.storage.disk.DiskModel`): the paper runs every
    experiment at one value of each, and so does this repository.
    """

    #: Cube-map resolution of the DoV estimator.
    dov_resolution: int = 32
    #: Viewpoint samples per cell for the conservative region DoV.
    samples_per_cell: int = 1
    page_size: int = PAGE_SIZE
    #: Storage schemes to build ("horizontal", "vertical",
    #: "indexed-vertical").
    schemes: Sequence[str] = ("indexed-vertical",)
    #: Store V-pages in the packed delta-compressed stream instead of
    #: one page per record.  Applies to the vertical and
    #: indexed-vertical schemes; the horizontal scheme's closed-form
    #: page addressing requires the raw layout and ignores the flag.
    compress_vpages: bool = False


@dataclass
class ObjectRecord:
    """Storage bookkeeping for one object's LoD chain."""

    object_id: int
    blob_id: int
    chain: LODChain

    def bytes_for_fraction(self, k: float) -> int:
        """Bytes of the eq.-6 blended LoD (a prefix of the finest blob)."""
        return self.chain.interpolated_polygons(k) * BYTES_PER_POLYGON


@dataclass
class InternalRecord:
    """Storage bookkeeping for one node's internal LoD chain."""

    node_offset: int
    blob_id: int
    lod: InternalLOD

    def bytes_for_fraction(self, fraction: float) -> int:
        """Bytes of the eq.-5 blended internal LoD."""
        return (self.lod.chain.interpolated_polygons(fraction)
                * BYTES_PER_POLYGON)


#: One cell's fidelity ground truth (``walkthrough.metrics``): visible
#: ``(object, DoV)`` pairs in the visibility table's order, the eq.-6
#: polygons each requires, and the summed DoV.
CellTruth = Tuple[Tuple[Tuple[int, float], ...], Dict[int, int], float]


@dataclass
class HDoVEnvironment:
    """Everything built by :func:`build_environment`."""

    scene: Scene
    grid: CellGrid
    config: HDoVConfig
    tree: RTree
    node_store: NodeStore
    object_store: ObjectStore
    objects: Dict[int, ObjectRecord]
    internals: Dict[int, InternalRecord]
    visibility: VisibilityTable
    cell_vpages: List[CellVPages]
    schemes: Dict[str, StorageScheme]
    #: Light-weight I/O: tree nodes, V-pages, index segments.
    light_stats: IOStats
    #: Heavy-weight I/O: model (LoD) data.
    heavy_stats: IOStats
    #: descendant object ids per node offset (fidelity accounting).
    descendants: Dict[int, List[int]] = field(default_factory=dict)
    #: What the sessions of a served view's server hold of the models
    #: (``repro.serving.service.session_env`` sets it when a pool is
    #: given); ``None``: a viewer's models are read for it alone.
    shared_models: Optional[SharedModels] = None
    #: cell id -> its :data:`CellTruth`, filled on a cell's first score
    #: and shared by every view (``dataclasses.replace`` passes it on).
    #: Derived from build-time data only, so never cleared.
    fidelity_truth: Dict[int, CellTruth] = field(default_factory=dict)

    def models_table(self) -> SharedModels:
        """Where a viewer built on this environment reads its models:
        the server's shared table, or a new table of its own."""
        if self.shared_models is None:
            return SharedModels(self.object_store)
        return self.shared_models

    def scheme(self, name: Optional[str] = None) -> StorageScheme:
        if name is None:
            if len(self.schemes) == 1:
                return next(iter(self.schemes.values()))
            # Several schemes built: default to the paper's pick ("for
            # the remaining experiments, we shall present the results
            # for the indexed-vertical scheme only").
            default = self.schemes.get("indexed-vertical")
            if default is not None:
                return default
            raise HDoVError(
                f"ambiguous scheme; choose from {sorted(self.schemes)}")
        try:
            return self.schemes[name]
        except KeyError:
            raise HDoVError(
                f"scheme {name!r} not built; have {sorted(self.schemes)}"
            ) from None

    def total_simulated_ms(self) -> float:
        return self.light_stats.simulated_ms + self.heavy_stats.simulated_ms

    def total_ios(self) -> int:
        return self.light_stats.total_ios + self.heavy_stats.total_ios

    def files(self) -> List[PagedFile]:
        """Every paged file the environment charges I/O through."""
        files = [self.node_store.pfile, self.object_store.pfile]
        for scheme in self.schemes.values():
            files.append(scheme.vpage_file)
            if scheme.index_file is not None:
                files.append(scheme.index_file)
        return files

    def reset_stats(self) -> None:
        self.light_stats.reset()
        self.heavy_stats.reset()

    def reset_runtime_state(self) -> None:
        """Back to *cold*: empty ledgers, no current cell in any
        scheme, and every file head forgotten — tree and model files
        included — so the next access to each file is a first access.
        The state a replay must start from for two replays of one path
        to charge identical I/O."""
        self.reset_stats()
        for scheme in self.schemes.values():
            scheme.reset_runtime_state()
        self.node_store.pfile.reset_head()
        self.object_store.pfile.reset_head()

    def snapshot(self) -> Tuple[IOStats, IOStats]:
        return (self.light_stats.snapshot(), self.heavy_stats.snapshot())

    def delta(self, snap: Tuple[IOStats, IOStats]) -> Tuple[IOStats, IOStats]:
        light, heavy = snap
        return (self.light_stats.delta(light), self.heavy_stats.delta(heavy))


@dataclass(frozen=True)
class _SharedProducts:
    """What a build derives from its scene and visibility table alone,
    whatever its config: the tree and internal LoDs do not depend on
    the viewer, and the schemes are layouts of one set of V-pages."""

    scene: Scene
    tree: RTree
    internal_lods: Dict[int, InternalLOD]
    cell_vpages: List[CellVPages]
    descendants: Dict[int, List[int]]


#: Caller-supplied visibility table -> the products of the last build
#: over it; an entry lives exactly as long as its table.
_SHARED: "weakref.WeakKeyDictionary[VisibilityTable, _SharedProducts]" = (
    weakref.WeakKeyDictionary())


def build_environment(scene: Scene, grid: CellGrid,
                      config: HDoVConfig = HDoVConfig(),
                      visibility: Optional[VisibilityTable] = None
                      ) -> HDoVEnvironment:
    """Run the full preprocessing pipeline; see the module docstring.

    ``visibility`` may be supplied to reuse an already-computed table
    (the experiments share one across eta sweeps).  Builds over one
    supplied table and the same scene object then share its
    view-invariant products — the STR tree, the internal LoDs, the
    per-cell V-pages (with their raw images) and the descendants map —
    so a second build derives none of them again; it still writes its
    own tree file, blob store and scheme files.  A build that computes
    its own table shares nothing.  The shared products are read-only
    once built, and mutating a scene or table after a build over it is
    unsupported (the environment holds both).
    """
    if len(scene) == 0:
        raise HDoVError("cannot build an environment over an empty scene")
    disk = DiskModel()
    light_stats = IOStats()
    heavy_stats = IOStats()
    shared = None if visibility is None else _SHARED.get(visibility)
    if shared is not None and shared.scene is not scene:
        shared = None

    # 1. Spatial backbone.
    tree = (shared.tree if shared is not None else
            str_bulk_load([(obj.mbr, obj.object_id) for obj in scene]))

    # 2. Persist nodes (assigns offsets).  Build I/O is not part of any
    # experiment measurement, so it runs against the shared stats and the
    # caller resets them afterwards.
    tree_file = PagedFile("tree", page_size=config.page_size, disk=disk,
                          stats=light_stats)
    node_store = NodeStore(tree_file)

    # 3. Object LoDs into the blob store, laid out in tree-DFS leaf order
    # so spatially adjacent models sit on adjacent pages — group fetches
    # during a traversal then ride the disk's read-ahead window.
    blob_file = PagedFile("models", page_size=config.page_size, disk=disk,
                          stats=heavy_stats)
    object_store = ObjectStore(blob_file)
    objects: Dict[int, ObjectRecord] = {}
    lod_pointers: Dict[int, int] = {}
    for leaf in tree.iter_leaves():
        for entry in leaf.entries:
            obj = scene.get(entry.object_id)  # type: ignore[arg-type]
            blob = object_store.put(obj.lods.finest.byte_size)
            objects[obj.object_id] = ObjectRecord(obj.object_id,
                                                  blob.blob_id, obj.lods)
            lod_pointers[obj.object_id] = blob.blob_id
    node_store.write_tree(tree, lod_pointers)

    # 4. Internal LoDs, bottom-up.
    internal_lods = (shared.internal_lods if shared is not None
                     else build_internal_lods(tree, scene))
    internals: Dict[int, InternalRecord] = {}
    for offset, lod in internal_lods.items():
        blob = object_store.put(lod.chain.finest.byte_size)
        internals[offset] = InternalRecord(offset, blob.blob_id, lod)

    # 5. Visibility per cell.
    supplied = visibility
    if visibility is None:
        visibility = precompute_visibility(
            scene, grid, resolution=config.dov_resolution,
            samples_per_cell=config.samples_per_cell)
    if visibility.num_cells != grid.num_cells:
        raise HDoVError("visibility table does not match the cell grid")

    # 6. V-pages + storage schemes.
    if shared is None:
        shared = _SharedProducts(
            scene, tree, internal_lods, instantiate_cells(
                tree, (visibility.cell(cid) for cid in grid.cell_ids())),
            _collect_descendants(tree))
        if supplied is not None:
            _SHARED[supplied] = shared
    cell_vpages = shared.cell_vpages
    schemes: Dict[str, StorageScheme] = {}
    num_nodes = node_store.num_nodes
    for name in config.schemes:
        cls = SCHEME_CLASSES.get(name)
        if cls is None:
            raise HDoVError(f"unknown scheme {name!r}")
        vpage_file = PagedFile(f"vpages-{name}", page_size=config.page_size,
                               disk=disk, stats=light_stats)
        if name == "horizontal":
            scheme = cls(vpage_file)
        else:
            index_file = PagedFile(f"vindex-{name}",
                                   page_size=config.page_size, disk=disk,
                                   stats=light_stats)
            codec: Optional[VPageCodec] = None
            if config.compress_vpages:
                codec = PackedDeltaVPageCodec(
                    config.page_size,
                    {cid: grid.neighbors(cid) for cid in grid.cell_ids()},
                    scheme=name)
            scheme = cls(vpage_file, index_file, codec=codec)
        scheme.build(num_nodes, cell_vpages)
        schemes[name] = scheme

    env = HDoVEnvironment(
        scene=scene, grid=grid, config=config, tree=tree,
        node_store=node_store, object_store=object_store, objects=objects,
        internals=internals, visibility=visibility, cell_vpages=cell_vpages,
        schemes=schemes, light_stats=light_stats, heavy_stats=heavy_stats,
        descendants=shared.descendants,
    )
    # Build I/O is preprocessing, not measurement — neither its charges
    # nor where its last write left each file's head.
    env.reset_runtime_state()
    return env


def _collect_descendants(tree: RTree) -> Dict[int, List[int]]:
    """Node offset -> sorted descendant object ids."""
    result: Dict[int, List[int]] = {}

    def visit(node: Node) -> List[int]:
        if node.is_leaf:
            ids = [e.object_id for e in node.entries]
        else:
            ids = []
            for child in node.children():
                ids.extend(visit(child))
        result[node.node_offset] = sorted(ids)
        return ids

    visit(tree.root)
    return result
