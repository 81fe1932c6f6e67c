"""Accounted page access for the layers above ``repro.storage``.

``PagedFile.read_page`` / ``write_page`` charge the disk model, but a
call site sprinkled through the tree, scheme and baseline layers is an
accounting hazard: PR 1's phantom-read and seek-miscounting bugs all
lived at exactly such call sites, and a new one can bypass whatever
invariant the storage layer enforces next.  This module is therefore the
*only* sanctioned way for code outside ``repro.storage`` to touch pages
(lint rule RPR001 enforces it), and it buys two things:

* a single choke point where cross-cutting concerns (assertions, future
  async backends, tracing) attach once instead of per call site;
* per-layer attribution — every access increments
  ``pageio_reads_total{component=...}`` / ``pageio_writes_total{...}``,
  so reports can answer *which layer* issued the I/O, not just which
  file received it.

The wrappers deliberately fetch their counters from the *current*
registry on every call rather than caching handles: callers like
``repro profile`` swap registries mid-process (``use_registry``), and a
cached handle would keep writing to the retired registry — the same
stale-identity bug class as the ``id()``-keyed buffer frames PR 1 fixed.
The per-call fetch is cheap because each registry answers a repeated
``counter(name, component=...)`` from its own alias dict.

The facade is also where resilience attaches (PR 3): every operation
runs under :func:`repro.storage.retry.run_with_retry`, so a transient
fault injected below is absorbed here — with bounded, simulated-clock
backoff — before any scheme or search code ever sees it.  When no fault
injector is installed the retry wrapper short-circuits to a bare call.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage.pagedfile import PagedFile
from repro.storage.retry import run_with_retry


def read_page(pfile: PagedFile, page_id: int, *, component: str) -> bytes:
    """Read one page, attributing it to ``component``."""
    get_registry().counter(names.PAGEIO_READS, component=component).inc()
    return run_with_retry(pfile.read_page, pfile, page_id)


def write_page(pfile: PagedFile, page_id: int, data: bytes, *,
               component: str) -> None:
    """Write one page, attributing it to ``component``."""
    get_registry().counter(names.PAGEIO_WRITES, component=component).inc()
    run_with_retry(pfile.write_page, pfile, page_id, data)


def append_page(pfile: PagedFile, data: bytes, *, component: str) -> int:
    """Allocate and write one page; returns the new page id.

    The allocation is not retried (it cannot fail transiently); only
    the write is, so a retry never allocates a second page.
    """
    get_registry().counter(names.PAGEIO_WRITES, component=component).inc()
    page_id = pfile.allocate()
    run_with_retry(pfile.write_page, pfile, page_id, data)
    return page_id


def read_run(pfile: PagedFile, first_page: int, count: int, *,
             component: str) -> bytes:
    """Read ``count`` consecutive pages as one buffer.

    Retried as a unit: a transient failure mid-run re-reads the whole
    run (charging each page again), which keeps the facade's contract —
    the caller either gets the full buffer or the final error.  A
    negative ``count`` is refused before anything is counted.
    """
    if count < 0:
        raise StorageError(f"count must be >= 0, got {count}")
    get_registry().counter(names.PAGEIO_READS,
                           component=component).inc(count)
    return run_with_retry(pfile.read_run, pfile, first_page, count)
