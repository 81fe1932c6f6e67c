"""Exception hierarchy for the HDoV-tree reproduction library.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch one base class.  Subsystems raise the most specific subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GeometryError(ReproError):
    """Invalid geometric input (degenerate mesh, empty AABB, bad shape)."""


class StorageError(ReproError):
    """Storage-layer failure (bad page id, corrupt record, closed file)."""


class PageNotFoundError(StorageError):
    """A page id was requested that has never been allocated."""


class TransientIOError(StorageError):
    """A page access failed in a way that may succeed on retry.

    Raised by the fault-injection layer (and, in a real deployment, by a
    flaky backend).  The ``repro.storage.pageio`` facade retries these
    with bounded backoff before letting them escape.
    """


class JournalCorruptError(StorageError):
    """A write-ahead-journal record failed its framing CRC *mid-file*.

    A torn tail (the normal power-loss shape) is silently truncated by
    recovery; this error is reserved for corruption *before* later
    intact records — bytes the journal claims were durable have rotted,
    so replaying past them could resurrect a torn prefix as committed
    state.  Recovery refuses instead of guessing.
    """


class SimulatedCrash(ReproError):
    """A deterministic crash point injected by the fault layer fired.

    Deliberately *not* a :class:`TransientIOError`: the retry layer must
    never absorb a crash.  Harness code that catches it must abandon all
    in-memory state — no flush, no checkpoint, no close — and exercise
    recovery on a fresh open, exactly as a process kill would.
    """


class PageCorruptError(StorageError):
    """A page's payload did not match its integrity checksum on read.

    Unlike :class:`TransientIOError` this is *not* retried — bad bytes on
    the medium stay bad — but V-page consumers degrade to the
    view-invariant internal LoD instead of failing the query.
    """


class BufferPoolError(StorageError):
    """Buffer-pool misuse (e.g. a capacity below one frame, an eviction
    of a key the replacement order never held)."""


class SerializationError(StorageError):
    """A record could not be encoded into or decoded from page bytes."""


class RTreeError(ReproError):
    """R-tree structural failure or API misuse."""


class VisibilityError(ReproError):
    """Visibility precomputation failure (bad cell grid, missing DoV)."""


class HDoVError(ReproError):
    """HDoV-tree construction or traversal failure."""


class SchemeError(HDoVError):
    """Storage-scheme failure (unknown cell, missing V-page, bad flip)."""


class WalkthroughError(ReproError):
    """Walkthrough-session or frame-simulation failure."""


class ExperimentError(ReproError):
    """Experiment driver misconfiguration."""


class ObservabilityError(ReproError):
    """Metrics/tracing misuse (kind mismatch, negative counter step)."""
