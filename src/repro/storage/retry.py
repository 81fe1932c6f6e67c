"""Bounded, deterministic retry for transient page-I/O failures.

First rung of the degradation ladder (DESIGN.md): a
:class:`~repro.errors.TransientIOError` is retried a fixed number of
times with exponential backoff charged to the *simulated* clock — no
wall-clock sleeping, so tests and the chaos harness stay fast and
reproducible.  :class:`~repro.errors.PageCorruptError` is deliberately
not retried: re-reading corrupt media returns the same bad bytes, and
the right response is the next rung (degrade to the internal LoD).

Metrics (names in ``repro.obs.names``): every retried attempt increments
``pageio_retries_total{file=...}`` and every exhausted budget increments
``pageio_giveups_total{file=...}``.  Both counters are created lazily on
the first event, so a fault-free run's metric dump is byte-identical to
one produced before this layer existed.

This module is a designated *fault boundary*: lint rule RPR008 exempts
it (together with ``repro.storage.faults``) from the silent-swallow ban,
because catching and re-dispatching failures is its purpose.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

from repro.errors import TransientIOError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage.pagedfile import PagedFile

T = TypeVar("T")


#: Attempts per operation, the first one included.
MAX_ATTEMPTS = 3
#: Simulated wait before the first retry; each later retry waits
#: ``BACKOFF_MULTIPLIER`` times longer.  Charged to the target file's
#: simulated clock so resilience has a visible, reconciled latency cost.
BASE_BACKOFF_MS = 4.0
BACKOFF_MULTIPLIER = 2.0


def run_with_retry(op: Callable[..., T], pfile: PagedFile, *args: Any) -> T:
    """Run ``op(*args)`` retrying transient failures against ``pfile``.

    Only a file with a fault injector can fail transiently, so
    :mod:`repro.storage.pageio` calls this for those files alone; on any
    other file ``op`` runs once, and no metric series is created.
    """
    attempt = 1
    while True:
        try:
            return op(*args)
        except TransientIOError:
            if attempt >= MAX_ATTEMPTS:
                get_registry().counter(names.PAGEIO_GIVEUPS,
                                       file=pfile.name).inc()
                raise
            get_registry().counter(names.PAGEIO_RETRIES,
                                   file=pfile.name).inc()
            pfile.charge_delay_ms(
                BASE_BACKOFF_MS * BACKOFF_MULTIPLIER ** (attempt - 1))
            attempt += 1


__all__ = ["MAX_ATTEMPTS", "BASE_BACKOFF_MS", "BACKOFF_MULTIPLIER",
           "run_with_retry"]
