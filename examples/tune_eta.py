#!/usr/bin/env python
"""Tuning the DoV threshold: the fidelity/performance trade-off.

The HDoV-tree's headline feature is that one knob — the DoV threshold
``eta`` — trades visual fidelity for speed (Section 3.3).  This example
sweeps ``eta`` over a walkthrough session and prints the frontier:
average frame time, frame-time variance (smoothness), fidelity, and
peak memory, like Table 3 with the fidelity column the paper shows as
screenshots.

Run:  python examples/tune_eta.py
"""

from repro import CellGrid, CityParams, HDoVConfig, build_environment, \
    generate_city
from repro.walkthrough import VisualSystem, frame_time_stats, make_session


def main() -> None:
    city = CityParams(blocks_x=8, blocks_y=8, seed=5,
                      bunnies_per_block=4, building_fraction=0.45)
    scene = generate_city(city)
    grid = CellGrid.covering(scene.bounds(), cell_size=80.0)
    env = build_environment(scene, grid,
                            HDoVConfig(dov_resolution=16,
                                       schemes=("indexed-vertical",)))
    session = make_session(1, scene.bounds(), num_frames=100)

    print(f"{'eta':>8}  {'frame ms':>8}  {'variance':>8}  "
          f"{'fidelity':>8}  {'peak MB':>8}")
    for eta in (0.0, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032):
        system = VisualSystem(env, eta=eta)
        report = system.run(session)
        stats = frame_time_stats(report.frame_times())
        print(f"{eta:>8g}  {stats.mean_ms:>8.2f}  {stats.variance:>8.1f}  "
              f"{report.avg_fidelity():>8.3f}  "
              f"{report.peak_resident_bytes() / 2**20:>8.2f}")

    print("\nPick the largest eta whose fidelity you can accept: frame "
          "time and variance\nfall (smoother, faster walkthrough) while "
          "fidelity degrades only gradually.")


if __name__ == "__main__":
    main()
