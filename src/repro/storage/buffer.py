"""Buffer pool over :class:`~repro.storage.pagedfile.PagedFile`.

The walkthrough systems cache tree nodes and V-pages; the buffer pool
makes cache hits free and tracks hit/miss counts.  It is a *read* cache:
nothing writes through it and nothing pins a frame, so a frame is the
bytes one read returned, unchanged until the policy evicts it.  That is
sound because no file of a built environment is written after the
build.

Replacement is 2Q (see :mod:`repro.storage.replacement`): the pool
owns frames and counters, while its
:class:`~repro.storage.replacement.TwoQPolicy` owns only the eviction
order.  2Q is scan-resistant: one walk's single-use pages cannot flush
the pages every walk re-reads out of an undersized pool.

One thread (DESIGN.md §10): nothing in the package starts a second
one, so the pool takes no lock.  It calls into a :class:`PagedFile` for
exactly one thing, the miss read (one read on one file); a file never
calls a pool.

Decoded payloads (:meth:`BufferPool.get` with a ``decoder``): a frame
can carry the decoded form of its bytes next to them, so a hot page is
decoded once per residency instead of once per read.  The payload is
valid exactly as long as its frame is — eviction and ``clear`` drop it
with the frame.

Query plans (:meth:`BufferPool.remember` / :meth:`BufferPool.recall`,
DESIGN.md §10): the pool keeps a query's page keys and answer until
``clear``; a pooled file never changes, so a plan never goes stale.
Recalling a plan re-issues its page reads in one call: a resident
page is a hit, a missing one a miss whose bytes (not decoded) come with
its run's one read, so every counter, the eviction order and both I/O
ledgers move exactly as the query's own ``get`` calls would move them.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple, TypeVar, overload)

from repro.errors import BufferPoolError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage.pagedfile import PagedFile
from repro.storage.replacement import TwoQPolicy

#: Signature for a pluggable miss reader: ``reader(pfile, first_page,
#: count) -> bytes``, ``count`` pages as one buffer (1 for ``get``).  The
#: serving layer injects readers that route through the
#: ``repro.storage.pageio`` facade so pool misses are retried and counted
#: like every other sanctioned page access.
PageReader = Callable[[PagedFile, int, int], bytes]

#: Result type of a ``get`` decoder.
T = TypeVar("T")


class _Frame:
    __slots__ = ("data", "payload")

    def __init__(self, data: bytes) -> None:
        self.data = data
        #: Decoded form of ``data`` (``None``: not decoded yet).  Shared by
        #: every reader of the frame, so decoders return immutable values.
        self.payload: Any = None


class _Plan:
    __slots__ = ("keys", "answer", "stamp")

    def __init__(self, keys: Tuple[Tuple[int, int], ...],
                 answer: Any) -> None:
        self.keys = keys
        self.answer = answer
        #: The pool's ``evictions`` after the last recall that left every
        #: key resident without evicting (``None``: none has yet).  While
        #: the count still equals it, no frame has gone since.
        self.stamp: Optional[int] = None


class BufferPool:
    """Fixed-capacity page cache with 2Q replacement.

    Keys are ``(file, page_id)`` pairs, so one pool can front several
    files (tree file, V-page file, object store) with a single memory
    budget — mirroring how the prototype shares one cache.  Files are
    identified by their stable :attr:`PagedFile.file_id`, never by
    ``id()``: a garbage-collected file's address can be reused by a new
    ``PagedFile``, which would silently serve the old file's frames for
    the new file's pages.  The pool keeps no reference to a file: it is
    handed one per ``get`` or ``recall`` and uses it for that call's
    miss reads only.

    Parameters
    ----------
    capacity:
        Maximum resident frames.
    name:
        Label for this pool's metrics series (hits, misses, evictions,
        resident pages) in the process metrics registry, and for its
        2Q counters.
    """

    #: Always 0 (no read is ever shared between two callers); only
    #: benchmarks/perf/drivers.py and oracle.py (frozen) read it.
    coalesced = 0

    def __init__(self, capacity: int, *, name: str = "default") -> None:
        if capacity < 1:
            raise BufferPoolError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._policy = TwoQPolicy(capacity, pool_name=name)
        self._frames: Dict[Tuple[int, int], _Frame] = {}
        #: token -> the page keys a query read, in order, and its answer;
        #: kept until ``clear``.
        self._plans: Dict[Hashable, _Plan] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        registry = get_registry()
        self._m_hits = registry.counter(names.BUFFERPOOL_HITS, pool=name)
        self._m_misses = registry.counter(names.BUFFERPOOL_MISSES,
                                          pool=name)
        self._m_evictions = registry.counter(names.BUFFERPOOL_EVICTIONS,
                                             pool=name)
        self._m_resident = registry.gauge(names.BUFFERPOOL_RESIDENT_PAGES,
                                          pool=name)

    @property
    def policy(self) -> TwoQPolicy:
        return self._policy

    # -- internals ------------------------------------------------------------

    def _evict_one(self) -> None:
        """Evict the policy's first victim.  The table is full, so the
        policy has one."""
        key = next(self._policy.victims())
        del self._frames[key]
        self._policy.on_evict(key)
        self.evictions += 1

    def _read_run(self, run: List[_Frame], first: Tuple[int, int],
                  readers: Dict[int, Tuple[PagedFile, Optional[PageReader]]]
                  ) -> None:
        """Give ``run``, a recall's frames for the pages from ``first`` on,
        their bytes with one read (none if empty); a frame evicted since
        it was installed drops its bytes."""
        if not run:
            return
        pfile, reader = readers[first[0]]
        data = (reader(pfile, first[1], len(run)) if reader is not None
                else pfile.read_run(first[1], len(run)))
        size = pfile.page_size
        for i, frame in enumerate(run):
            frame.data = data[i * size:(i + 1) * size]

    # -- public API -------------------------------------------------------------

    @overload
    def get(self, pfile: PagedFile, page_id: int, *,
            reader: Optional[PageReader] = ...) -> bytes: ...

    @overload
    def get(self, pfile: PagedFile, page_id: int, *,
            reader: Optional[PageReader] = ...,
            decoder: Callable[[bytes], T]) -> T: ...

    def get(self, pfile: PagedFile, page_id: int, *,
            reader: Optional[PageReader] = None,
            decoder: Optional[Callable[[bytes], Any]] = None) -> Any:
        """Return page contents, reading through the file on a miss.

        ``reader`` overrides how a miss fetches bytes (default
        ``pfile.read_page``), with ``count=1``; the serving layer passes
        a ``pageio``-routed reader so misses get retry + component
        accounting.  A miss is counted, then a frame is freed, then the
        page is read (the order the byte-diffed reports are pinned to: a
        read that fails has already evicted) — the call's one read, on
        ``pfile`` and no other file.  A reader that raises installs nothing, so the next
        ``get`` reads again.

        With a ``decoder`` the call returns ``decoder(page bytes)``
        instead of the bytes, decoded at most once per frame residency:
        the result rides on the frame and later calls share it, so it
        must be immutable, and every caller of one file's pages must
        pass the same decoder.  Counters move exactly as without one.
        A decoder that raises caches nothing and the error propagates
        (the bytes stay resident).
        """
        key = (pfile.file_id, page_id)
        frame = self._frames.get(key)
        if frame is not None:
            self.hits += 1
            self._m_hits.inc()
            self._policy.on_access(key)
        else:
            self.misses += 1
            self._m_misses.inc()
            if len(self._frames) >= self.capacity:
                self._evict_one()
                self._m_evictions.inc()
            frame = self._frames[key] = _Frame(
                reader(pfile, page_id, 1) if reader is not None
                else pfile.read_page(page_id))
            self._policy.on_insert(key)
            self._m_resident.set(len(self._frames))
        if decoder is None:
            return frame.data
        if frame.payload is None:
            frame.payload = decoder(frame.data)
        return frame.payload

    def remember(self, token: Hashable, keys: Sequence[Tuple[int, int]],
                 answer: Any) -> None:
        """Keep ``answer`` for :meth:`recall` until :meth:`clear`: what a
        query computed from exactly the page reads ``keys`` —
        ``(file_id, page_id)`` in read order, all through this pool.
        The pooled files do not change while the pool fronts them, so
        neither does the answer; ``answer`` is shared with every later
        caller: immutable.  A token names one query, so the table holds
        at most one plan per query asked."""
        self._plans[token] = _Plan(tuple(keys), answer)

    def recall(self, token: Hashable,
               files: Sequence[Tuple[PagedFile, Optional[PageReader]]]
               ) -> Optional[Tuple[Any, int]]:
        """``(answer, pages read)`` of the plan remembered under
        ``token``, or ``None``.

        Recalling re-issues the plan's page reads in the recorded order,
        so that every counter, the policy order, the
        file heads and both I/O ledgers end where the query's own
        ``get`` calls would have left them: a resident key is a hit and
        ``on_access``; a missing one frees a frame and is installed at
        once, bytes to follow.  Misses on one file whose page ids rise
        by exactly 1 form a run (hits do not break it), read by one call
        of the file's reader in ``files`` — the one those ``get`` calls
        pass — once the next miss is elsewhere or the plan ends, so each
        file sees the ``get`` calls' reads in order.  A frame evicted
        before its run is read drops its bytes; the rest stay undecoded.
        Once a recall has evicted nothing, every key is resident until
        the next eviction, and the recalls in between book hits only.

        No frame is left without bytes: if any of ``files`` has
        :attr:`PagedFile.reads_can_fail` and a key is missing, nothing
        is booked and the answer is ``None`` — the query reads itself.
        """
        plan = self._plans.get(token)
        if plan is None:
            return None
        keys = plan.keys
        on_access = self._policy.on_access
        if plan.stamp == self.evictions:
            self.hits += len(keys)
            self._m_hits.inc(len(keys))
            for key in keys:
                on_access(key)
            return plan.answer, 0
        frames = self._frames
        if (any(pfile.reads_can_fail for pfile, _reader in files)
                and not all(key in frames for key in keys)):
            return None
        readers = {pfile.file_id: (pfile, reader)
                   for pfile, reader in files}
        evictions, misses = self.evictions, self.misses
        hits = 0
        run: List[_Frame] = []      # installed, awaiting one read
        first = (-1, 0)             # the run's first key (no file's)
        for key in keys:
            if key in frames:
                hits += 1
                on_access(key)
                continue
            if key != (first[0], first[1] + len(run)):
                self._read_run(run, first, readers)
                run, first = [], key
            self.misses += 1
            if len(frames) >= self.capacity:
                self._evict_one()
            frames[key] = frame = _Frame(b"")
            self._policy.on_insert(key)
            run.append(frame)
        self._read_run(run, first, readers)
        self.hits += hits
        self._m_hits.inc(hits)
        self._m_misses.inc(self.misses - misses)
        self._m_evictions.inc(self.evictions - evictions)
        self._m_resident.set(len(frames))
        if self.evictions == evictions:
            # A recall that evicted may have evicted its own earlier
            # keys (a plan larger than the pool): no stamp then.
            plan.stamp = evictions
        return plan.answer, self.misses - misses

    def contains(self, pfile: PagedFile, page_id: int) -> bool:
        return (pfile.file_id, page_id) in self._frames

    def clear(self) -> None:
        """Drop every frame, payload and plan; the counters stand."""
        self._plans.clear()
        self._frames.clear()
        self._policy.clear()
        self._m_resident.set(0)

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Demand-read counters (stable key order: the reports that
        embed this block are byte-diffed)."""
        return {"capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate}

    def __repr__(self) -> str:
        return (f"BufferPool(capacity={self.capacity}, "
                f"resident={self.resident_pages}, hits={self.hits}, "
                f"misses={self.misses})")
