"""Frame-time model.

The paper measures per-frame wall-clock on real hardware; we model it
deterministically: a frame costs the simulated I/O milliseconds of its
database query (from the disk model) plus a rendering term proportional
to the polygons handed to the graphics engine, plus a fixed overhead.
Frame-time *differences* in the paper come exactly from these two terms
(I/O stalls and polygon load), so the shapes of Figure 10 and Table 3
are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.storage.disk import IOStats


@dataclass(frozen=True)
class FrameModel:
    """Converts a frame's work into simulated milliseconds.

    Defaults approximate early-2000s rendering throughput (~50k triangles
    per millisecond would be too fast for the era; the paper's frame
    times around 12-16 ms at city scale suggest a few thousand polygons
    per ms through the whole pipeline).
    """

    polys_per_ms: float = 4000.0
    overhead_ms: float = 4.0

    def render_ms(self, polygons: int) -> float:
        if polygons < 0:
            raise ValueError(f"negative polygon count: {polygons}")
        return self.overhead_ms + polygons / self.polys_per_ms

    def frame_ms(self, io_ms: float, polygons: int) -> float:
        if io_ms < 0:
            raise ValueError(f"negative io time: {io_ms}")
        return io_ms + self.render_ms(polygons)

    def record(self, frame_index: int, cell_id: Optional[int],
               light: IOStats, heavy: IOStats, polygons: int,
               fidelity: float, resident_bytes: int,
               degraded: int = 0) -> "FrameRecord":
        """The one place a frame's I/O deltas become a record.

        ``light``/``heavy`` are the ``env.delta()`` of the frame's
        accounting window; search time is the query's simulated I/O.
        """
        io_ms = light.simulated_ms + heavy.simulated_ms
        return FrameRecord(
            frame_index=frame_index,
            cell_id=cell_id,
            io_ms=io_ms,
            light_ios=light.total_ios,
            heavy_ios=heavy.total_ios,
            polygons=polygons,
            frame_ms=self.frame_ms(io_ms, polygons),
            search_ms=io_ms,
            fidelity=fidelity,
            resident_bytes=resident_bytes,
            degraded=degraded,
            back_seeks=light.back_seeks + heavy.back_seeks,
            forward_seeks=light.forward_seeks + heavy.forward_seeks,
        )


@dataclass(frozen=True)
class FrameRecord:
    """Measurements of one rendered frame."""

    frame_index: int
    cell_id: Optional[int]
    io_ms: float
    #: light-weight I/O count (nodes + V-pages + index segments).
    light_ios: int
    #: heavy-weight I/O count (model data pages).
    heavy_ios: int
    polygons: int
    frame_ms: float
    #: Search time = the database query's simulated ms (I/O-dominated).
    search_ms: float
    #: Visual fidelity in [0, 1] (see metrics), NaN when not evaluated.
    fidelity: float
    resident_bytes: int
    #: Subtrees shown at their fallback internal LoD this frame because
    #: a V-page stayed unreadable (0 on the happy path).  Carried from
    #: the frame's governing query: non-query frames rendering a
    #: degraded answer set count as degraded too.
    degraded: int = 0
    #: Direction split of this frame's non-sequential accesses across
    #: both I/O classes (light + heavy); ``back_seeks`` is HODOR's
    #: measure of the storage order.  Defaults keep older callers valid.
    back_seeks: int = 0
    forward_seeks: int = 0

    @property
    def total_ios(self) -> int:
        return self.light_ios + self.heavy_ios
