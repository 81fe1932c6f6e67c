"""Page-addressed storage files.

A :class:`PagedFile` is a growable array of fixed-size pages, addressed by
integer page id.  It can live purely in memory (the default for tests and
benchmarks, which keeps experiments fast and hermetic) or be backed by a
real file on disk.  Every access is charged to a shared
:class:`~repro.storage.disk.IOStats` at the prices of a
:class:`~repro.storage.disk.DiskModel`, and sequentiality is detected from
the previously accessed page id, which is what makes DFS-ordered V-page
layouts measurably cheaper.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import zlib
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.constants import PAGE_SIZE
from repro.errors import PageCorruptError, PageNotFoundError, StorageError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage.disk import DiskModel, IOStats
from repro.storage.journal import WriteAheadJournal, journal_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.faults import FaultInjector
    from repro.storage.recovery import RecoveryReport

#: Process-wide monotonic file identity.  ``id(pfile)`` is unusable as a
#: cache key because a garbage-collected file's address can be reused by
#: a new object; these ids are never reused within a process.
_FILE_IDS = itertools.count()

#: On-disk page trailer: magic ("HDOV") + CRC32 of the logical payload.
#: The magic distinguishes a real trailer from the all-zero trailer of a
#: lazily allocated (never written) page, whose zero payload is valid.
_TRAILER = struct.Struct("<II")
_TRAILER_MAGIC = 0x48444F56
_ZERO_TRAILER = bytes(_TRAILER.size)


class PagedFile:
    """A file of fixed-size pages with allocation and I/O accounting.

    Parameters
    ----------
    name:
        Identifier used in error messages and stats breakdowns.
    page_size:
        Bytes per page; defaults to :data:`repro.constants.PAGE_SIZE`.
    disk:
        Cost model; every read/write is charged through it.
    stats:
        Shared accumulator.  Pass the experiment-wide instance so that all
        files contribute to one simulated clock.
    path:
        Optional real filesystem path.  When given, pages are persisted to
        the file; otherwise pages live in an in-process dict.
    journal:
        Enable crash consistency (disk-backed files only): every write
        is appended to a write-ahead log at ``<path>.wal`` before the
        data file is touched, and opening the file replays committed
        journal entries (see :mod:`repro.storage.recovery`).  Writes
        stay in an in-memory overlay until :meth:`checkpoint` copies
        them into the data file; :meth:`commit` makes them durable.
    faults:
        Optional fault injector to install *before* recovery runs, so
        deterministic crash points cover recovery itself.

    Notes
    -----
    Disk-backed pages carry an 8-byte integrity trailer (magic + CRC32
    of the logical payload), so each physical page is ``page_size + 8``
    bytes while every API — including I/O accounting — stays in logical
    ``page_size`` units.  A mismatch on read raises
    :class:`~repro.errors.PageCorruptError`.

    The in-memory backend holds each page exactly as its writer handed
    it in: a payload shorter than a page keeps no zero padding.  Reads
    still return full ``page_size`` images — a short page is padded
    with zeros per read, and a page never written *is* the file's one
    immutable zero page.  Its checksums, always of the padded image,
    live in a side dict and are verified only while a fault injector is
    installed.  A write made while an injector is installed is stored
    padded, as are disk pages and journal overlay images, so bit flips
    and torn writes land in page coordinates.
    """

    def __init__(self, name: str, *, page_size: int = PAGE_SIZE,
                 disk: Optional[DiskModel] = None,
                 stats: Optional[IOStats] = None,
                 path: Optional[str] = None,
                 journal: bool = False,
                 faults: Optional["FaultInjector"] = None) -> None:
        if page_size <= 0:
            raise StorageError(f"page_size must be positive, got {page_size}")
        if journal and path is None:
            raise StorageError(
                f"{name}: journaling requires a disk-backed file "
                f"(pass path=)")
        self.name = name
        self.page_size = page_size
        self.disk = disk if disk is not None else DiskModel()
        self.stats = stats if stats is not None else IOStats()
        #: Stable per-file identity (survives address reuse; see
        #: :class:`~repro.storage.buffer.BufferPool`).
        self.file_id = next(_FILE_IDS)
        registry = get_registry()
        self._m_reads = registry.counter(names.PAGEDFILE_READS, file=name)
        self._m_writes = registry.counter(names.PAGEDFILE_WRITES, file=name)
        self._m_seeks = registry.counter(names.PAGEDFILE_SEEKS, file=name)
        self._m_back_seeks = registry.counter(
            names.PAGEDFILE_BACK_SEEKS, file=name)
        self._m_forward_seeks = registry.counter(
            names.PAGEDFILE_FORWARD_SEEKS, file=name)
        self._m_sequential = registry.counter(
            names.PAGEDFILE_SEQUENTIAL, file=name)
        self._m_bytes_read = registry.counter(
            names.PAGEDFILE_BYTES_READ, file=name)
        self._m_bytes_written = registry.counter(
            names.PAGEDFILE_BYTES_WRITTEN, file=name)
        self._m_ms = registry.counter(
            names.PAGEDFILE_SIMULATED_MS, file=name)
        self._path = path
        #: Memory backend: page id -> the payload as written (maybe
        #: shorter than a page).  Absent pages read as ``_zero_page``.
        self._mem: Dict[int, bytes] = {}
        self._zero_page = bytes(page_size)
        self._crcs: Dict[int, int] = {}
        self._faults: Optional["FaultInjector"] = None
        self._fh = None
        self._num_pages = 0
        #: Physical bytes per page: logical payload plus, on disk, the
        #: integrity trailer.  Accounting always uses logical page_size.
        self._physical_page_size = (page_size if path is None
                                    else page_size + _TRAILER.size)
        self._last_accessed: Optional[int] = None
        self._closed = False
        if path is not None:
            # "r+b" keeps seek+write semantics; append mode would force
            # every write to the end of the file regardless of seeks.
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._fh = open(path, mode)
            self._fh.seek(0, os.SEEK_END)
            size = self._fh.tell()
            if size % self._physical_page_size != 0:
                self._fh.close()
                raise StorageError(
                    f"{path}: size {size} is not a multiple of the "
                    f"physical page size {self._physical_page_size}")
            self._num_pages = size // self._physical_page_size
        #: WAL-before-data: journaled writes park page images here until
        #: checkpoint copies them into the data file.  Maps page id to
        #: ``(payload, intended CRC)``.
        self._overlay: Dict[int, Tuple[bytes, int]] = {}
        self._journal: Optional[WriteAheadJournal] = None
        self._last_recovery: Optional["RecoveryReport"] = None
        if journal:
            assert path is not None
            self._journal = WriteAheadJournal(
                journal_path(path), page_size=page_size, name=name)
        # The injector goes in before recovery so the crash harness can
        # kill recovery itself at any boundary.
        if faults is not None:
            faults.install(self)
        if self._journal is not None and self._journal.has_entries:
            from repro.storage.recovery import recover
            try:
                self._last_recovery = recover(self)
            except BaseException:
                # Constructor unwinding doubles as the crash: release
                # the handles exactly as :meth:`crash` would — flushed
                # (the write-through data model) but never checkpointed.
                if self._fh is not None:
                    self._fh.flush()
                    self._fh.close()
                    self._fh = None
                self._journal.close()
                self._closed = True
                raise

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush, fsync and close the backend; safe to call twice.

        Durability bug fixed here: the old close dropped whatever the
        OS had buffered, so a crash right after "successful" close could
        lose pages.  ``__exit__`` after an explicit close (or a double
        ``close()``) is a no-op rather than an error — the common
        ``with``-block-plus-cleanup pattern must not raise.
        """
        if self._closed:
            return
        if self._journal is not None:
            self.checkpoint()
            self._journal.close()
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
        self._closed = True

    def crash(self) -> None:
        """Simulate a power loss: abandon state without flush paths.

        The journal drops the volatile half of its un-synced tail (see
        :meth:`WriteAheadJournal.simulate_power_loss`); the overlay and
        the in-memory backend vanish outright, as RAM does.  The data
        file is modelled *write-through* — page writes that completed
        before the crash survive — which is safe precisely because the
        journal is redo-only: committed images are replayed over
        whatever the data file holds, and uncommitted images never
        reach it (they live in the overlay until checkpoint).  See
        DESIGN.md §12.
        """
        if self._closed:
            return
        if self._journal is not None:
            self._journal.simulate_power_loss()
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None
        self._overlay.clear()
        self._mem.clear()
        self._crcs.clear()
        self._closed = True

    def __enter__(self) -> "PagedFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"{self.name}: file is closed")

    # -- fault injection -----------------------------------------------------

    @property
    def faults(self) -> Optional["FaultInjector"]:
        """The installed fault injector, or None (the happy path)."""
        return self._faults

    @property
    def reads_can_fail(self) -> bool:
        """Whether a read of an allocated page can raise: the file is on
        disk (I/O, CRC), closed, or has an injector installed."""
        return (self._path is not None or self._closed
                or self._faults is not None)

    @property
    def journal(self) -> Optional[WriteAheadJournal]:
        """The write-ahead journal, or None (journaling disabled)."""
        return self._journal

    @property
    def last_recovery(self) -> Optional["RecoveryReport"]:
        """What recovery did at open time; None if it had nothing to do."""
        return self._last_recovery

    def install_faults(self, injector: Optional["FaultInjector"]) -> None:
        """Attach (or, with None, detach) a fault injector.

        Prefer :meth:`FaultInjector.install`, which also tracks the file
        for a later bulk ``uninstall``.
        """
        self._faults = injector

    def charge_delay_ms(self, ms: float) -> None:
        """Charge extra simulated latency (fault spikes, retry backoff).

        Both ledgers move together — the shared :class:`IOStats` clock
        and the per-file metric — so ``repro profile`` reconciliation
        holds under fault injection too.
        """
        if not (math.isfinite(ms) and ms >= 0):
            raise StorageError(
                f"{self.name}: delay must be finite and >= 0, got {ms}")
        self.stats.simulated_ms += ms
        self._m_ms.inc(ms)

    # -- allocation ------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def byte_size(self) -> int:
        return self._num_pages * self.page_size

    def allocate(self) -> int:
        """Allocate a fresh zeroed page; returns its page id.

        Allocation itself is free (the write that follows pays the I/O)
        and *lazy*: no zero payload is written.  Reading a page that was
        allocated but never written returns zeros; the file backend
        extends the file size with ``truncate`` (one metadata operation,
        no data write) instead of writing a zero page that the typical
        ``append_page`` caller immediately overwrites.
        """
        return self.allocate_many(1)

    def allocate_many(self, count: int) -> int:
        """Allocate ``count`` consecutive pages; returns the first id."""
        if count < 1:
            raise StorageError(f"count must be >= 1, got {count}")
        self._check_open()
        first = self._num_pages
        self._num_pages += count
        if self._fh is not None:
            self._fh.truncate(self._num_pages * self._physical_page_size)
        return first

    # -- access ------------------------------------------------------------

    def _charge(self, page_id: int, *, write: bool, count: int = 1) -> None:
        """Classify and price one access from the disk model's constants;
        book it with plain adds into ``IOStats`` and the file's series.
        An access of ``count > 1`` pages is a run: its first page is the
        access, then ``count - 1`` sequential reads (or writes) follow,
        with ``transfer_ms`` added per page, in order, as that many
        one-page accesses would book them."""
        stats = self.stats
        disk = self.disk
        last = self._last_accessed
        if write:
            stats.writes += 1
            stats.bytes_written += self.page_size
            self._m_writes.value += 1
            self._m_bytes_written.value += self.page_size
        else:
            stats.reads += 1
            stats.bytes_read += self.page_size
            self._m_reads.value += 1
            self._m_bytes_read.value += self.page_size
        # A zero delta is a repeat access to the page under the head: no
        # repositioning happens, so it must not be charged as a seek.
        if last is not None and 0 <= page_id - last <= max(
                disk.readahead_pages, 1):
            stats.sequential_reads += 1
            self._m_sequential.value += 1
            cost = disk.transfer_ms
        else:
            stats.seeks += 1
            self._m_seeks.value += 1
            # Direction is classified against *this file's* head only:
            # each PagedFile models its own spindle, so interleaved
            # access to another file never perturbs the classification
            # here, and a cold head (first access, or after reset_head)
            # is a forward seek — the arm starts parked at the outer
            # edge.
            if last is not None and page_id < last:
                stats.back_seeks += 1
                self._m_back_seeks.value += 1
            else:
                stats.forward_seeks += 1
                self._m_forward_seeks.value += 1
            cost = disk.seek_ms + disk.transfer_ms
        stats.simulated_ms += cost
        self._m_ms.value += cost
        tail = count - 1
        if tail:
            nbytes = tail * self.page_size
            if write:
                stats.writes += tail
                stats.bytes_written += nbytes
                self._m_writes.value += tail
                self._m_bytes_written.value += nbytes
            else:
                stats.reads += tail
                stats.bytes_read += nbytes
                self._m_reads.value += tail
                self._m_bytes_read.value += nbytes
            stats.sequential_reads += tail
            self._m_sequential.value += tail
            transfer = disk.transfer_ms
            for _ in range(tail):
                stats.simulated_ms += transfer
                self._m_ms.value += transfer
            page_id += tail
        self._last_accessed = page_id

    def _validate(self, page_id: int) -> None:
        if not 0 <= page_id < self._num_pages:
            raise PageNotFoundError(
                f"{self.name}: page {page_id} of {self._num_pages}")

    def read_page(self, page_id: int) -> bytes:
        """Read one page, charging the disk model.

        The access is charged *before* the fault hooks run: a failed
        real I/O still pays the seek, and both ledgers must count every
        attempt or the retry layer would make I/O look free.
        """
        self._check_open()
        if (self._fh is None and self._faults is None
                and 0 <= page_id < self._num_pages):
            self._charge(page_id, write=False)
            return self._mem.get(page_id, self._zero_page).ljust(
                self.page_size, b"\0")
        return self._read_one(page_id)

    def _read_one(self, page_id: int) -> bytes:
        """The per-page body of :meth:`read_page` and :meth:`read_run` on
        disk, journaled and faulted files and for a page past the end.
        Callers have checked the file is open."""
        self._validate(page_id)
        self._charge(page_id, write=False)
        if self._faults is not None:
            self._faults.before_read(self, page_id)
        overlay = self._overlay.get(page_id)
        if overlay is not None:
            # Journaled write not yet checkpointed: the overlay is
            # the page's current image; the data file is stale.
            data, crc = overlay
            if self._faults is not None:
                data = self._faults.filter_read(self, page_id, data)
            if zlib.crc32(data) != crc:
                raise self._corrupt(page_id, "CRC mismatch")
            return data
        if self._fh is None:
            # Allocated but never written: the shared zero page.
            data = self._mem.get(page_id, self._zero_page)
            if len(data) < self.page_size:
                data = data.ljust(self.page_size, b"\0")
            if self._faults is not None:
                data = self._faults.filter_read(self, page_id, data)
                self._verify_mem(page_id, data)
            return data
        self._fh.seek(page_id * self._physical_page_size)
        raw = self._fh.read(self._physical_page_size)
        if len(raw) != self._physical_page_size:
            raise self._corrupt(page_id, "short read")
        data = raw[:self.page_size]
        trailer = raw[self.page_size:]
        if self._faults is not None:
            data = self._faults.filter_read(self, page_id, data)
        self._verify_disk(page_id, data, trailer)
        return data

    def _corrupt(self, page_id: int, why: str) -> PageCorruptError:
        """Count and build (not raise) a corruption error."""
        # Lazily created so fault-free runs register no new series.
        get_registry().counter(names.PAGES_CORRUPT, file=self.name).inc()
        return PageCorruptError(
            f"{self.name}: page {page_id} corrupt ({why})")

    def _verify_disk(self, page_id: int, data: bytes,
                     trailer: bytes) -> None:
        if trailer == _ZERO_TRAILER:
            # Lazily allocated, never written: zeros are the contract.
            if data.count(0) != len(data):
                raise self._corrupt(page_id, "unwritten page not zero")
            return
        magic, crc = _TRAILER.unpack(trailer)
        if magic != _TRAILER_MAGIC:
            raise self._corrupt(page_id, "bad trailer magic")
        if crc != zlib.crc32(data):
            raise self._corrupt(page_id, "CRC mismatch")

    def _verify_mem(self, page_id: int, data: bytes) -> None:
        """Checksum check for the memory backend (faulted runs only)."""
        expected = self._crcs.get(page_id)
        if expected is None:
            if data.count(0) != len(data):
                raise self._corrupt(page_id, "unwritten page not zero")
            return
        if expected != zlib.crc32(data):
            raise self._corrupt(page_id, "CRC mismatch")

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write one page, charging the disk model.

        A payload shorter than a page is the page with a zero tail.  The
        integrity trailer is the CRC of that padded image, computed from
        the payload the *caller* handed in, while fault filters may tear
        the bytes that actually reach the backend — which is exactly how
        a torn write becomes a detectable CRC mismatch on the next read.
        The memory backend holds a short payload unpadded unless an
        injector is installed (see the class notes).
        """
        self._check_open()
        self._validate(page_id)
        size = len(data)
        if size > self.page_size:
            raise self._oversized(size)
        tail = self._zero_page[size:]
        crc = zlib.crc32(tail, zlib.crc32(data))
        if tail and (self._fh is not None or self._faults is not None):
            data = data + tail
        self._charge(page_id, write=True)
        if self._faults is not None:
            self._faults.before_write(self, page_id)
            data = self._faults.filter_write(self, page_id, data)
        if self._journal is not None:
            # WAL-before-data: the image reaches the journal now and
            # the data file only at checkpoint, after a commit
            # marker proved it durable — so every data page is
            # always either its pre-crash or post-commit image.
            self._journal.append_page_image(page_id, data, crc,
                                            faults=self._faults)
            self._overlay[page_id] = (bytes(data), crc)
            return
        self._backend_write(page_id, data, crc)

    def _oversized(self, size: int) -> StorageError:
        return StorageError(f"{self.name}: payload {size} exceeds page size")

    def check_payloads(self, images: Sequence[bytes]) -> None:
        """Raise :class:`StorageError` unless every payload fits a page."""
        size = max(map(len, images), default=0)
        if size > self.page_size:
            raise self._oversized(size)

    def write_run(self, first_page: int, images: Sequence[bytes]) -> None:
        """Write ``images`` to the consecutive pages from ``first_page``.

        The twin of :meth:`read_run`: the ledgers equal ``len(images)``
        calls of :meth:`write_page`, float for float, and each page
        holds what that call would store, CRC included.  Every payload
        is checked against the page size before anything is charged.  A
        run inside a memory file with no injector is booked in one step,
        and each distinct image object in it gets its CRC once; any
        other goes page by page through :meth:`write_page`, so one that
        crosses ``num_pages`` writes its valid prefix first.
        """
        self._check_open()
        self.check_payloads(images)
        count = len(images)
        if not (count and self._fh is None and self._faults is None
                and 0 <= first_page
                and first_page + count <= self._num_pages):
            for page_id, data in enumerate(images, first_page):
                self.write_page(page_id, data)
            return
        self._charge(first_page, write=True, count=count)
        mem = self._mem
        crcs = self._crcs
        zero = self._zero_page
        # id(image) -> its CRC; ``images`` keeps every image alive, so
        # no id is reused within the run.
        seen: Dict[int, int] = {}
        for page_id, data in enumerate(images, first_page):
            crc = seen.get(id(data))
            if crc is None:
                crc = seen[id(data)] = zlib.crc32(zero[len(data):],
                                                  zlib.crc32(data))
            mem[page_id] = bytes(data)
            crcs[page_id] = crc

    def _backend_write(self, page_id: int, data: bytes, crc: int) -> None:
        """Raw backend write: no charging, no faults, no journal.

        Extends the file when replay targets a page past the current
        end (an allocation whose pages were journaled but whose extent
        was lost).
        """
        if page_id >= self._num_pages:
            self._num_pages = page_id + 1
            if self._fh is not None:
                self._fh.truncate(
                    self._num_pages * self._physical_page_size)
        if self._fh is None:
            self._mem[page_id] = bytes(data)
            self._crcs[page_id] = crc
        else:
            self._fh.seek(page_id * self._physical_page_size)
            self._fh.write(
                data + _TRAILER.pack(_TRAILER_MAGIC, crc))

    # -- crash consistency ---------------------------------------------------

    def _require_journal(self) -> WriteAheadJournal:
        if self._journal is None:
            raise StorageError(
                f"{self.name}: not a journaled file (pass journal=True)")
        return self._journal

    def commit(self) -> None:
        """Group-commit: make every write since the last commit durable.

        Appends one commit marker covering the batch and fsyncs the
        journal once.  A commit with nothing pending is a no-op (no
        empty markers, no wasted fsync).  The data file is untouched —
        durability lives in the journal until :meth:`checkpoint`.
        """
        self._check_open()
        journal = self._require_journal()
        if journal.uncommitted_records == 0:
            return
        if self._faults is not None:
            self._faults.crash_point(f"journal-commit:{self.name}")
        journal.append_commit_marker()
        if self._faults is not None:
            self._faults.crash_point(f"journal-sync:{self.name}")
        journal.sync()

    def checkpoint(self) -> None:
        """Commit, copy overlay images into the data file, reset the WAL.

        Ordering is the whole point: commit marker fsync'd first (so a
        crash mid-copy replays from the journal), data file written and
        fsync'd second, journal truncated last (only once the data file
        holds everything).  Checkpoint writes are charged to the disk
        model — they are the WAL's write amplification, and hiding them
        would skew ``repro profile``'s reconciliation.
        """
        self._check_open()
        journal = self._require_journal()
        self.commit()
        if not self._overlay and not journal.has_entries:
            return
        for page_id in sorted(self._overlay):
            data, crc = self._overlay[page_id]
            self._charge(page_id, write=True)
            if self._faults is not None:
                self._faults.crash_point(
                    f"checkpoint-write:{self.name}:{page_id}")
            self._backend_write(page_id, data, crc)
        if self._faults is not None:
            self._faults.crash_point(f"data-sync:{self.name}")
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        if self._faults is not None:
            self._faults.crash_point(f"journal-reset:{self.name}")
        journal.reset()
        self._overlay.clear()

    def replay_page(self, page_id: int, data: bytes, crc: int) -> None:
        """Apply one committed journal image (recovery only; charged)."""
        self._check_open()
        self._charge(page_id, write=True)
        self._backend_write(page_id, data, crc)

    def sync_data(self) -> None:
        """Flush and fsync the data file (recovery's durability barrier)."""
        self._check_open()
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def append_page(self, data: bytes) -> int:
        """Allocate and write in one step; returns the new page id."""
        page_id = self.allocate()
        self.write_page(page_id, data)
        return page_id

    def read_run(self, first_page: int, count: int) -> bytes:
        """Read ``count`` consecutive pages as one buffer.

        The first access may seek; the rest are charged as sequential,
        so the ledgers equal ``count`` calls of :meth:`read_page`, float
        for float.  A run inside a memory file with no injector is booked
        in one step; any other goes page by page, so one that crosses
        ``num_pages`` charges its valid prefix first.
        """
        if count < 0:
            raise StorageError(f"count must be >= 0, got {count}")
        self._check_open()
        if (count and self._fh is None and self._faults is None
                and 0 <= first_page
                and first_page + count <= self._num_pages):
            self._charge(first_page, write=False, count=count)
            mem, zero, size = self._mem, self._zero_page, self.page_size
            if not mem:
                return bytes(count * size)  # stores no page: the models file
            return b"".join([mem.get(page_id, zero).ljust(size, b"\0")
                             for page_id in range(first_page,
                                                  first_page + count)])
        return b"".join([self._read_one(page_id) for page_id
                         in range(first_page, first_page + count)])

    def read_runs(self, runs: Sequence[Tuple[int, int]]) -> None:
        """Read each ``(first_page, count)`` run, in order, and drop the
        bytes: for a reader that needs a read's cost, not its content
        (model blobs hold none).  The ledgers move as one
        :meth:`read_run` per run would move them, float for float.

        Every count is checked before anything is charged.  A memory
        file with no injector and no stored page books runs that lie
        inside ``num_pages`` in one loop; any other file or run goes
        through :meth:`read_run` per run, so a run that crosses
        ``num_pages`` charges the runs before it and its own valid
        prefix, then raises.
        """
        self._check_open()
        last = self._num_pages
        in_one_loop = (self._fh is None and self._faults is None
                       and not self._mem)
        for first_page, count in runs:
            if count < 0:
                raise StorageError(f"count must be >= 0, got {count}")
            if count and not 0 <= first_page <= last - count:
                in_one_loop = False
        if not in_one_loop:
            for first_page, count in runs:
                self.read_run(first_page, count)
            return
        charge = self._charge
        for first_page, count in runs:
            if count:
                charge(first_page, write=False, count=count)

    def reset_head(self) -> None:
        """Forget the last accessed page (forces the next access to seek).

        Experiments call this between queries so each query pays a cold
        first seek, matching the paper's uncached measurement setup.
        """
        self._last_accessed = None

    def __repr__(self) -> str:
        kind = "file" if self._fh is not None else "mem"
        return (f"PagedFile({self.name!r}, pages={self._num_pages}, "
                f"page_size={self.page_size}, backend={kind})")
