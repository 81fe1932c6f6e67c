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

The counters are bumped through a ``{component: Counter}`` table that
belongs to the registry it was filled from: every call compares that
registry with the *current* one (``get_registry()``) and refills the
table from the current one when they differ.  Callers like ``repro
profile`` swap registries mid-process (``use_registry``), and a handle
kept past the swap would keep writing to the retired registry — the
same stale-identity bug class as the ``id()``-keyed buffer frames PR 1
fixed.  The table holds its registry, so a retired registry cannot be
collected and its identity reused while the table still answers for
it; ``registry.reset()`` keeps handles valid, so it needs no refill.

The facade is also where resilience attaches (PR 3): an operation on a
file with a fault injector runs under
:func:`repro.storage.retry.run_with_retry`, so a transient fault
injected below is absorbed here — with bounded, simulated-clock backoff
— before any scheme or search code ever sees it.  A file without an
injector cannot fail transiently, and its operation is one direct call.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.errors import StorageError
from repro.obs import names
from repro.obs.metrics import Counter, MetricsRegistry, get_registry
from repro.storage.pagedfile import PagedFile
from repro.storage.retry import run_with_retry

#: ``(registry, {component: reads counter}, {component: writes
#: counter})``: handles of the registry they came from.
_handles: Tuple[MetricsRegistry, Dict[str, Counter], Dict[str, Counter]] = (
    get_registry(), {}, {})


def _counter(component: str, *, write: bool) -> Counter:
    """A component's first access in the current registry, or the first
    access after a swap: fetch its handle, refilling the table from the
    current registry if it came from another."""
    global _handles
    registry = get_registry()
    if _handles[0] is not registry:
        _handles = (registry, {}, {})
    if write:
        table = _handles[2]
        handle = registry.counter(names.PAGEIO_WRITES, component=component)
    else:
        table = _handles[1]
        handle = registry.counter(names.PAGEIO_READS, component=component)
    table[component] = handle
    return handle


def read_page(pfile: PagedFile, page_id: int, *, component: str) -> bytes:
    """Read one page, attributing it to ``component``."""
    registry, reads, _ = _handles
    handle = reads.get(component)
    if handle is None or registry is not get_registry():
        handle = _counter(component, write=False)
    handle.value += 1
    if pfile.faults is None:
        return pfile.read_page(page_id)
    return run_with_retry(pfile.read_page, pfile, page_id)


def write_page(pfile: PagedFile, page_id: int, data: bytes, *,
               component: str) -> None:
    """Write one page, attributing it to ``component``."""
    registry, _, writes = _handles
    handle = writes.get(component)
    if handle is None or registry is not get_registry():
        handle = _counter(component, write=True)
    handle.value += 1
    if pfile.faults is None:
        pfile.write_page(page_id, data)
    else:
        run_with_retry(pfile.write_page, pfile, page_id, data)


def write_run(pfile: PagedFile, first_page: int, images: Sequence[bytes],
              *, component: str) -> None:
    """Write ``images`` to consecutive pages from ``first_page``, as one
    :meth:`PagedFile.write_run`.

    An oversized payload is refused before anything is counted.  On a
    file with an injector each page is written and retried on its own,
    as :func:`write_page` retries it, so a transient failure never
    rewrites the pages before it.
    """
    pfile.check_payloads(images)
    registry, _, writes = _handles
    handle = writes.get(component)
    if handle is None or registry is not get_registry():
        handle = _counter(component, write=True)
    handle.value += len(images)
    if pfile.faults is None:
        pfile.write_run(first_page, images)
        return
    for page_id, data in enumerate(images, first_page):
        run_with_retry(pfile.write_page, pfile, page_id, data)


def read_run(pfile: PagedFile, first_page: int, count: int, *,
             component: str) -> bytes:
    """Read ``count`` consecutive pages as one buffer.

    Retried as a unit: a transient failure mid-run re-reads the whole
    run (charging each page again), which keeps the facade's contract —
    the caller either gets the full buffer or the final error.  A
    negative ``count`` is refused before anything is counted; a zero
    one still creates its series.
    """
    if count < 0:
        raise StorageError(f"count must be >= 0, got {count}")
    registry, reads, _ = _handles
    handle = reads.get(component)
    if handle is None or registry is not get_registry():
        handle = _counter(component, write=False)
    handle.value += count
    if pfile.faults is None:
        return pfile.read_run(first_page, count)
    return run_with_retry(pfile.read_run, pfile, first_page, count)
