#!/usr/bin/env python
"""Quickstart: build an HDoV-tree over a small synthetic city and run
visibility queries at different DoV thresholds.

Walks the paper's whole preprocessing pipeline (Section 5.1) in a few
lines: city generation, R-tree construction, internal-LoD generation,
per-cell DoV precomputation, V-page layout — then queries the tree with
the Figure-3 traversal and shows how the threshold ``eta`` trades detail
for I/O.

Run:  python examples/quickstart.py
"""

from repro import (CellGrid, CityParams, HDoVConfig, HDoVSearch,
                   build_environment, generate_city)

def main() -> None:
    # 1. A synthetic city: buildings (the occluders) plus dense organic
    #    "bunny" models, each with a multi-resolution LoD chain.
    city = CityParams(blocks_x=6, blocks_y=6, seed=42,
                      bunnies_per_block=4, building_fraction=0.45)
    scene = generate_city(city)
    print(f"scene: {len(scene)} objects, "
          f"{scene.total_polygons():,} polygons, "
          f"{scene.total_bytes() / 2**20:.1f} MB of model data")

    # 2. Partition the viewpoint space into cells and run the full
    #    preprocessing pipeline (tree, LoDs, DoV, storage scheme).
    grid = CellGrid.covering(scene.bounds(), cell_size=100.0)
    config = HDoVConfig(dov_resolution=16, schemes=("indexed-vertical",))
    env = build_environment(scene, grid, config)
    print(f"HDoV-tree: {env.node_store.num_nodes} nodes, "
          f"height {env.tree.height}, {grid.num_cells} viewing cells")

    # 3. Query from a street viewpoint at several thresholds.
    search = HDoVSearch(env)
    viewpoint = (city.pitch * 2, city.pitch * 3, 1.7)   # street corner
    print(f"\nvisibility query at {viewpoint}:")
    print(f"{'eta':>8}  {'objects':>7}  {'internal LoDs':>13}  "
          f"{'polygons':>8}  {'sim. ms':>8}")
    for eta in (0.0, 0.001, 0.004, 0.016, 0.064):
        env.reset_runtime_state()            # cold query
        result = search.query_point(viewpoint, eta)
        print(f"{eta:>8g}  {len(result.objects):>7}  "
              f"{len(result.internals):>13}  "
              f"{result.total_polygons:>8,}  "
              f"{env.total_simulated_ms():>8.1f}")

    print("\nLarger eta => more branches terminate at coarse internal "
          "LoDs => fewer objects fetched, less I/O.")


if __name__ == "__main__":
    main()
