"""Storage substrate: paged files, buffer pool, disk timing model.

This package replaces the raw-disk substrate of the paper's prototype.
Every page access is counted and charged against a deterministic
:class:`~repro.storage.disk.DiskModel`, which is how the library produces
reproducible "time" numbers on any machine.

Resilience (PR 3) lives here too: :mod:`repro.storage.faults` injects
deterministic failures beneath :class:`PagedFile`, and
:mod:`repro.storage.retry` absorbs the transient ones at the
:mod:`~repro.storage.pageio` facade.

Crash consistency (PR 8): :mod:`repro.storage.journal` write-ahead-logs
every journaled page write, and :mod:`repro.storage.recovery` replays
committed records on open.
"""

from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile
from repro.storage.buffer import BufferPool
from repro.storage.objectstore import ObjectStore
from repro.storage.faults import (FaultInjector, FaultPlan, FaultRule,
                                  named_plan, plan_names)
from repro.storage.retry import run_with_retry
from repro.storage.journal import WriteAheadJournal, journal_path
from repro.storage.recovery import RecoveryReport, recover
from repro.storage import pageio

__all__ = ["DiskModel", "IOStats", "PagedFile", "BufferPool", "ObjectStore",
           "FaultInjector", "FaultPlan", "FaultRule", "named_plan",
           "plan_names", "run_with_retry", "WriteAheadJournal",
           "journal_path", "RecoveryReport", "recover", "pageio"]
