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

from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from repro.errors import StorageError, TransientIOError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage.pagedfile import PagedFile

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts to make and how long to back off between them.

    ``backoff_ms(attempt)`` grows geometrically: the first retry waits
    ``base_backoff_ms``, the next ``base_backoff_ms * multiplier``, and
    so on.  Backoff is charged to the target file's simulated clock so
    resilience has a visible, reconciled latency cost.
    """

    max_attempts: int = 3
    base_backoff_ms: float = 4.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StorageError(
                f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_backoff_ms < 0.0:
            raise StorageError(
                f"base_backoff_ms must be >= 0: {self.base_backoff_ms}")
        if self.multiplier < 1.0:
            raise StorageError(
                f"multiplier must be >= 1: {self.multiplier}")

    def backoff_ms(self, attempt: int) -> float:
        """Simulated backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise StorageError(f"attempt must be >= 1: {attempt}")
        return self.base_backoff_ms * self.multiplier ** (attempt - 1)


DEFAULT_RETRY_POLICY = RetryPolicy()


def run_with_retry(op: Callable[..., T], pfile: PagedFile,
                   policy: Optional[RetryPolicy] = None, *args: Any) -> T:
    """Run ``op(*args)`` retrying transient failures against ``pfile``.

    Fast path first: when no fault injector is installed on the file,
    transient errors cannot occur, so the operation runs bare — zero
    overhead and zero new metric series on the happy path.
    """
    if pfile.faults is None:
        return op(*args)
    if policy is None:
        policy = DEFAULT_RETRY_POLICY
    attempt = 1
    while True:
        try:
            return op(*args)
        except TransientIOError:
            if attempt >= policy.max_attempts:
                get_registry().counter(names.PAGEIO_GIVEUPS,
                                       file=pfile.name).inc()
                raise
            get_registry().counter(names.PAGEIO_RETRIES,
                                   file=pfile.name).inc()
            pfile.charge_delay_ms(policy.backoff_ms(attempt))
            attempt += 1


__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY", "run_with_retry"]
