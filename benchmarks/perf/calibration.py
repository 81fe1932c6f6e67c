"""Same-process speed calibration, interleaved with the measured work.

This sandbox is a shared 2-core box whose effective CPU speed wanders:
the same round of ``walk_hot_pool`` ran at 220 and at 430 queries/s
within 80 seconds, process CPU time tracking wall time (no steal is
reported — it is a slower core, not a descheduled one).  The wander
lasts tens of seconds, so no number of rounds inside one run averages
it out, and raw wall-clock medians of ten runs disagree by more than
any bound the benchmark may declare.

ROADMAP open item 1(d) names the remedy: a fixed calibration kernel run
*in the same process*, so that the box cancels.  It only works when the
kernel is interleaved finely with the work — one ~10 us tick before
every operation — because then both integrate the same speed profile.
Measured on 24 rounds of ``walk_hot_pool``: inter-quartile spread of
raw throughput 0.24, of calibrated throughput 0.04.

A round's *speed factor* is its mean tick time over ``REFERENCE_US``;
every reported time is the raw time divided by that factor, i.e. the
time the work would have taken on a core running the kernel at the
reference speed.  The raw figures and the factors are printed in the
detail line, nothing is hidden.

What it cannot cancel is noise that is not CPU speed: the real
``fsync`` of ``journal_write_mix`` keeps a run-to-run spread of about
0.12 after calibration, which is why the timing bounds are as wide as
they are.  Set-up consists of a few long library calls that cannot be
interleaved with ticks, so it is calibrated by samples at its phase
boundaries only (:class:`PhaseTimer`).
"""

from __future__ import annotations

import struct
import time
from typing import Dict

import numpy as np

#: Kernel time that defines speed factor 1.0: what this box needs for one
#: tick when it is quiet.  A constant of the benchmark, never re-fitted.
REFERENCE_US = 10.0

_RECORD = struct.Struct("<6fII")
_PAGE = _RECORD.pack(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7, 8) * 8


def _kernel() -> int:
    """Fixed work shaped like the program's hot path (fixed-width
    unpacking, small numpy arrays, tuples in a list) but sharing no code
    with it, so that no change to the program can move it."""
    entries = []
    for offset in range(0, len(_PAGE), _RECORD.size):
        values = _RECORD.unpack_from(_PAGE, offset)
        entries.append((np.array(values[0:3]), np.array(values[3:6]),
                        values[6], values[7]))
    return len(entries)


class Calibrator:
    """Accumulates tick time; one instance per round."""

    def __init__(self) -> None:
        self.timed_ns = 0
        self.total_ns = 0
        self.ticks = 0

    def tick(self) -> None:
        # The first pass is not timed: it refills the caches the
        # preceding operation (or its system calls) emptied, so that the
        # timed pass sees the core's speed, not the workload's footprint.
        entered = time.perf_counter_ns()
        _kernel()
        start = time.perf_counter_ns()
        _kernel()
        end = time.perf_counter_ns()
        self.timed_ns += end - start
        self.total_ns += end - entered
        self.ticks += 1

    @property
    def seconds(self) -> float:
        """Time spent calibrating (to take out of the round's wall)."""
        return self.total_ns / 1e9

    @property
    def speed_factor(self) -> float:
        """> 1: the box ran slower than the reference during the round."""
        if not self.ticks:
            return 1.0
        return self.timed_ns / self.ticks / 1e3 / REFERENCE_US


def sample_speed_factor(seconds: float = 0.03) -> float:
    """Speed factor from ticking for ``seconds`` (phase boundaries)."""
    calibrator = Calibrator()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        calibrator.tick()
    return calibrator.speed_factor


class PhaseTimer:
    """Times consecutive phases of set-up at reference speed.

    The speed factor is sampled at every phase boundary; a phase is
    charged its raw wall time over the mean of the factors at its two
    ends, which follows the box's slow drift if not its bursts.
    """

    def __init__(self) -> None:
        self.raw_s: Dict[str, float] = {}
        self.ref_s: Dict[str, float] = {}
        self._factor = sample_speed_factor()
        self._started = time.perf_counter()

    def done(self, phase: str) -> None:
        """The phase that began at the previous boundary has ended."""
        raw = time.perf_counter() - self._started
        factor = sample_speed_factor()
        self.raw_s[phase] = raw
        self.ref_s[phase] = raw / ((self._factor + factor) / 2.0)
        self._factor = factor
        self._started = time.perf_counter()
