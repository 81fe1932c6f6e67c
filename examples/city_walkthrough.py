#!/usr/bin/env python
"""Interactive-walkthrough comparison: VISUAL vs REVIEW.

Replays the paper's session 1 (a normal walkthrough along the city
streets) on both systems and prints per-system frame statistics plus a
small ASCII frame-time strip chart — the textual equivalent of
Figure 10(a): REVIEW's re-query frames produce tall spikes, while
VISUAL's cell crossings barely show.

Run:  python examples/city_walkthrough.py
"""

from repro import CellGrid, CityParams, HDoVConfig, build_environment, \
    generate_city
from repro.walkthrough import (ReviewWalkthrough, VisualSystem,
                               frame_time_stats, make_session)


def strip_chart(values, width=72, height=8):
    """Render a frame-time series as ASCII rows (top row = max)."""
    step = max(len(values) // width, 1)
    sampled = [max(values[i:i + step]) for i in range(0, len(values), step)]
    peak = max(sampled) or 1.0
    rows = []
    for level in range(height, 0, -1):
        threshold = peak * (level - 0.5) / height
        rows.append("".join("#" if v >= threshold else " "
                            for v in sampled))
    rows.append("-" * len(sampled))
    return "\n".join(rows) + f"\npeak = {peak:.0f} ms"


def main() -> None:
    city = CityParams(blocks_x=8, blocks_y=8, seed=3,
                      bunnies_per_block=4, building_fraction=0.45)
    scene = generate_city(city)
    grid = CellGrid.covering(scene.bounds(), cell_size=80.0)
    env = build_environment(scene, grid,
                            HDoVConfig(dov_resolution=16,
                                       schemes=("indexed-vertical",)))
    session = make_session(1, scene.bounds(), num_frames=120)

    visual = VisualSystem(env, eta=0.001)
    visual_report = visual.run(session)
    review = ReviewWalkthrough(env, box_size=400.0)
    review_report = review.run(session)

    for report in (visual_report, review_report):
        stats = frame_time_stats(report.frame_times())
        print(f"\n{report.system} on {report.session}:")
        print(f"  avg frame time : {stats.mean_ms:8.2f} ms")
        print(f"  variance       : {stats.variance:8.2f}")
        print(f"  max frame time : {stats.maximum_ms:8.2f} ms")
        print(f"  avg fidelity   : {report.avg_fidelity():8.3f}")
        print(f"  peak memory    : "
              f"{report.peak_resident_bytes() / 2**20:8.2f} MB")
        print(strip_chart(report.frame_times()))

    v_stats = frame_time_stats(visual_report.frame_times())
    r_stats = frame_time_stats(review_report.frame_times())
    print(f"\nVISUAL is {r_stats.mean_ms / v_stats.mean_ms:.1f}x faster "
          f"on average and {r_stats.variance / v_stats.variance:.1f}x "
          "smoother (variance) at better visual fidelity.")


if __name__ == "__main__":
    main()
