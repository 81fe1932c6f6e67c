"""Thread-safe buffer pool over :class:`~repro.storage.pagedfile.PagedFile`.

The walkthrough systems cache tree nodes and V-pages; the buffer pool
makes cache hits free and tracks hit/miss counts.  Pages can be pinned to
protect them from eviction while a traversal holds references.

Replacement is pluggable (see :mod:`repro.storage.replacement`): the
pool owns frames, pins, latches and locking, while a
:class:`~repro.storage.replacement.ReplacementPolicy` owns only the
eviction order.  The default ``"lru"`` policy reproduces the historical
LRU pool bit-for-bit; ``"2q"`` adds scan resistance for the
many-session undersized-pool regime.

Concurrency model (see DESIGN.md §10):

* one pool-wide :class:`threading.RLock` guards all frame-table state —
  get/put/evict/unpin/flush/clear are linearized on it; the policy is
  only ever called with this lock held;
* a per-``(file, page)`` *in-flight read latch* gives single-flight
  reads: the first thread to miss a page becomes the owner and performs
  the disk read with the pool lock **released**; later threads faulting
  the same page block on the latch and share the owner's bytes (they
  count as hits, plus a ``coalesced`` counter, because no disk read was
  issued on their behalf);
* lock order is pool lock → file lock, never the reverse.  The pool
  calls into a :class:`PagedFile` while holding its lock only for
  eviction write-back; miss reads happen outside the pool lock so a slow
  read of one page never blocks hits on other pages.

Decoded payloads (:meth:`BufferPool.get` with a ``decoder``): a frame
can carry the decoded form of its bytes next to them, so a hot page is
decoded once per residency instead of once per read.  The payload is
valid exactly as long as the frame's ``bytes`` object is — ``put``
clears it, eviction and ``clear`` drop it with the frame — and is
assigned only under the pool lock; the decode itself runs outside it.

Query plans (:meth:`BufferPool.remember` / :meth:`BufferPool.recall`,
DESIGN.md §10): a *generation* moves wherever a resident frame can go or
change — eviction, ``put``, ``clear``, never a fill into free capacity —
and while it stands the pool keeps the page keys and the answer of
queries whose every page is resident.  Recalling one books what that
many ``get`` hits would have, in one lock round.
"""

from __future__ import annotations

import threading
from typing import (Any, Callable, Dict, Hashable, Optional, Sequence, Tuple,
                    TypeVar, Union, overload)

from repro.concurrency.witness import wrap_lock
from repro.errors import BufferPoolError, BufferPoolExhaustedError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage.pagedfile import PagedFile
from repro.storage.replacement import ReplacementPolicy, make_policy

#: Signature for a pluggable miss reader: ``reader(pfile, page_id) -> bytes``.
#: The serving layer injects a reader that routes through the
#: ``repro.storage.pageio`` facade so pool misses are retried and counted
#: like every other sanctioned page access.
PageReader = Callable[[PagedFile, int], bytes]

#: Result type of a ``get`` decoder.
T = TypeVar("T")
_STALE: Any = object()  # "the latched bytes are superseded: start the get over"


class _Frame:
    __slots__ = ("data", "pin_count", "dirty", "payload")

    def __init__(self, data: bytes, payload: Any = None) -> None:
        self.data = data
        self.pin_count = 0
        self.dirty = False
        #: Decoded form of ``data`` (``None``: not decoded yet).  Shared by
        #: every reader of the frame, so decoders return immutable values.
        self.payload = payload


class _Latch:
    """In-flight read marker for one ``(file, page)`` key.

    All fields are guarded by the pool lock.  The first *waiter* creates
    ``event``; the owner sets exactly one of ``data``/``error`` and
    signals the event only if there is one.  ``put`` detaches the latch
    and marks it ``superseded``: its bytes are never installed.
    """

    __slots__ = ("event", "data", "error", "superseded")

    def __init__(self) -> None:
        self.event: Optional[threading.Event] = None
        self.data: Optional[bytes] = None
        self.error: Optional[BaseException] = None
        self.superseded = False


class BufferPool:
    """Fixed-capacity page cache with pluggable replacement, thread-safe.

    Keys are ``(file, page_id)`` pairs, so one pool can front several
    files (tree file, V-page file, object store) with a single memory
    budget — mirroring how the prototype shares one cache.  Files are
    identified by their stable :attr:`PagedFile.file_id`, never by
    ``id()``: a garbage-collected file's address can be reused by a new
    ``PagedFile``, which would silently serve the old file's frames for
    the new file's pages.

    Parameters
    ----------
    capacity:
        Maximum resident frames.
    name:
        Label for this pool's metrics series (hits, misses, evictions,
        pin churn) in the process metrics registry.
    policy:
        Replacement policy: ``"lru"`` (default, the historical
        behavior), ``"2q"``, or a ready
        :class:`~repro.storage.replacement.ReplacementPolicy` instance.
    """

    #: Lattice level of ``_lock`` (see repro.concurrency.order): below
    #: the scheduler's state lock, above the per-file I/O lock — the
    #: pool may write back into a PagedFile, a file never calls a pool.
    LOCK_LEVEL = "bufferpool"

    def __init__(self, capacity: int, *, name: str = "default",
                 policy: Union[str, ReplacementPolicy] = "lru") -> None:
        if capacity < 1:
            raise BufferPoolError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._policy = make_policy(policy, capacity, name)
        self._lock = wrap_lock(threading.RLock(),
                               level=BufferPool.LOCK_LEVEL,
                               name=f"bufferpool:{name}")
        self._frames: Dict[Tuple[int, int], _Frame] = {}
        self._files: Dict[int, PagedFile] = {}
        self._latches: Dict[Tuple[int, int], _Latch] = {}
        self._generation = 0
        #: token -> (page keys in read order, answer), all remembered at
        #: the current generation.
        self._plans: Dict[Hashable, Tuple[Sequence[Tuple[int, int]],
                                          Any]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0
        registry = get_registry()
        self._m_hits = registry.counter(names.BUFFERPOOL_HITS, pool=name)
        self._m_misses = registry.counter(names.BUFFERPOOL_MISSES,
                                          pool=name)
        self._m_evictions = registry.counter(names.BUFFERPOOL_EVICTIONS,
                                             pool=name)
        self._m_pins = registry.counter(names.BUFFERPOOL_PINS, pool=name)
        self._m_unpins = registry.counter(names.BUFFERPOOL_UNPINS,
                                          pool=name)
        self._m_writebacks = registry.counter(
            names.BUFFERPOOL_WRITEBACKS, pool=name)
        self._m_coalesced = registry.counter(
            names.BUFFERPOOL_COALESCED, pool=name)
        self._m_resident = registry.gauge(names.BUFFERPOOL_RESIDENT_PAGES,
                                          pool=name)

    @property
    def policy(self) -> ReplacementPolicy:
        return self._policy

    # -- internals ------------------------------------------------------------

    def _key(self, pfile: PagedFile, page_id: int) -> Tuple[int, int]:
        fid = pfile.file_id
        self._files[fid] = pfile
        return (fid, page_id)

    def _bump_generation(self) -> None:
        """A frame goes or changes: drop every plan.  Caller holds lock."""
        self._generation += 1
        self._plans.clear()

    def _evict_one(self) -> None:
        """Evict the policy's best unpinned candidate.  Caller holds lock."""
        for key in self._policy.victims():
            frame = self._frames.get(key)
            if frame is None or frame.pin_count != 0:
                continue
            if frame.dirty:
                fid, page_id = key
                # Eviction write-back is the one sanctioned pool->file
                # call under the pool lock (DESIGN.md §10); miss reads
                # happen outside the lock via the single-flight latch.
                self._files[fid].write_page(page_id, frame.data)  # repro: ignore[RPR012]
                self._m_writebacks.inc()
            del self._frames[key]
            self._bump_generation()
            self._policy.on_evict(key)
            self.evictions += 1
            self._m_evictions.inc()
            return
        raise BufferPoolExhaustedError(
            f"all {len(self._frames)} frames are pinned; cannot evict")

    def _install(self, key: Tuple[int, int], frame: _Frame) -> None:
        """Insert ``frame``, evicting until under capacity.  Caller holds lock.

        Concurrent owners can momentarily push the table past capacity
        between their pre-read eviction and install, so installation
        enforces the bound again.
        """
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[key] = frame
        self._policy.on_insert(key)
        self._m_resident.set(len(self._frames))

    def _pin_locked(self, frame: _Frame) -> None:
        frame.pin_count += 1
        self._m_pins.inc()

    # -- public API -------------------------------------------------------------

    @overload
    def get(self, pfile: PagedFile, page_id: int, *, pin: bool = ...,
            reader: Optional[PageReader] = ...) -> bytes: ...

    @overload
    def get(self, pfile: PagedFile, page_id: int, *, pin: bool = ...,
            reader: Optional[PageReader] = ...,
            decoder: Callable[[bytes], T]) -> T: ...

    def get(self, pfile: PagedFile, page_id: int, *, pin: bool = False,
            reader: Optional[PageReader] = None,
            decoder: Optional[Callable[[bytes], Any]] = None) -> Any:
        """Return page contents, reading through the file on a miss.

        ``reader`` overrides how a miss fetches bytes (default
        ``pfile.read_page``); the serving layer passes a
        ``pageio``-routed reader so misses get retry + component
        accounting.  Concurrent misses on the same page coalesce into
        one read: only the owner's ``reader`` runs, and every waiter
        counts a hit plus ``coalesced``.

        With a ``decoder`` the call returns ``decoder(page bytes)``
        instead of the bytes, decoded at most once per frame residency:
        the result rides on the frame and later calls share it, so it
        must be immutable, and every caller of one file's pages must
        pass the same decoder.  Counters and pins move exactly as
        without one.  A decoder that raises caches nothing and the
        error propagates.
        """
        with self._lock:
            # Under the lock: _key registers pfile in the _files map, and
            # that map is otherwise only mutated lock-held (put/clear).
            key = self._key(pfile, page_id)
            frame = self._frames.get(key)
            if frame is not None:
                self.hits += 1
                self._m_hits.inc()
                self._policy.on_access(key)
                if pin:
                    self._pin_locked(frame)
                if decoder is None:
                    return frame.data
                if frame.payload is not None:
                    return frame.payload
                data = frame.data
            else:
                latch = self._latches.get(key)
                owner = latch is None
                if owner:
                    # Count the miss and free a frame *before* the read
                    # (matching the sequential pool's eviction-then-read
                    # I/O order), then read with the lock released.
                    self.misses += 1
                    self._m_misses.inc()
                    if len(self._frames) >= self.capacity:
                        self._evict_one()
                    latch = self._latches[key] = _Latch()
                else:
                    # Another thread is already reading this page; its
                    # bytes will be shared, so no disk read is charged
                    # to us.
                    self.hits += 1
                    self.coalesced += 1
                    self._m_hits.inc()
                    self._m_coalesced.inc()
                    if latch.event is None:
                        latch.event = threading.Event()
        if frame is None:
            assert latch is not None
            if owner:
                found = self._read_as_owner(key, pfile, page_id, latch,
                                            pin=pin, reader=reader,
                                            decoder=decoder)
            else:
                found = self._wait_as_waiter(key, latch, pin=pin,
                                             decoder=decoder)
            if found is _STALE:
                # The latched bytes were superseded by a put that is no
                # longer resident: start over (the pin is the caller's).
                found = self.get(pfile, page_id, pin=pin,  # repro: ignore[RPR003]
                                 reader=reader, decoder=decoder)
            return found
        return self._decode_onto_frame(key, data, decoder)

    def _decode_onto_frame(self, key: Tuple[int, int], data: bytes,
                           decoder: Callable[[bytes], Any]) -> Any:
        """Decode ``data`` with the lock released, then leave the result
        on the frame if it still holds these very bytes.

        Two threads racing here decode the same bytes to equal payloads;
        the first to re-take the lock wins and the other adopts its
        result.  A frame that was evicted or overwritten meanwhile gets
        nothing: a payload never outlives the bytes it was decoded from.
        """
        payload = decoder(data)
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None and frame.data is data:
                if frame.payload is None:
                    frame.payload = payload
                else:
                    payload = frame.payload
        return payload

    def _read_as_owner(self, key: Tuple[int, int], pfile: PagedFile,
                       page_id: int, latch: _Latch, *, pin: bool,
                       reader: Optional[PageReader],
                       decoder: Optional[Callable[[bytes], Any]] = None
                       ) -> Any:
        """Single-flight fill: read and decode unlocked, install bytes and
        payload in one locked step (or ``_STALE``).  Caller holds NO lock."""
        try:
            data = (reader(pfile, page_id) if reader is not None
                    else pfile.read_page(page_id))
        except BaseException as exc:
            # Propagate the failure to every waiter, then clear the latch
            # so a later get() retries the read instead of deadlocking.
            with self._lock:
                latch.error = exc
                self._release_latch(key, latch)
            raise
        payload = None
        try:
            if decoder is not None:
                payload = decoder(data)
        finally:
            # A raising decoder still installs the bytes it was given and
            # releases the latch before the error propagates.
            with self._lock:
                latch.data = data
                frame = self._frames.get(key)
                if frame is not None:
                    # A put landed during the read: its bytes are newer
                    # than the disk's; installing would lose the write.
                    data, payload = frame.data, frame.payload
                elif not latch.superseded:
                    frame = _Frame(data, payload)
                    self._install(key, frame)
                if pin and frame is not None:
                    self._pin_locked(frame)
                self._release_latch(key, latch)
        if frame is None:   # superseded by a put that was evicted again
            return _STALE
        if decoder is not None and payload is None:     # a put's bytes
            return self._decode_onto_frame(key, data, decoder)
        return data if decoder is None else payload

    def _release_latch(self, key: Tuple[int, int], latch: _Latch) -> None:
        """Retire ``latch`` and wake its waiters.  Caller holds lock."""
        if self._latches.get(key) is latch:     # else: detached by a put
            del self._latches[key]
        if latch.event is not None:
            latch.event.set()

    def _wait_as_waiter(self, key: Tuple[int, int], latch: _Latch, *,
                        pin: bool,
                        decoder: Optional[Callable[[bytes], Any]]) -> Any:
        """The owner's bytes (decoded), or ``_STALE``: a pinned residency
        is wanted and the latched bytes are superseded."""
        assert latch.event is not None
        latch.event.wait()
        if latch.error is not None:
            raise latch.error
        data = latch.data
        assert data is not None
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                self._policy.on_access(key)
                data = frame.data
            elif pin:
                # The frame was already evicted between the owner's install
                # and this waiter waking up; the latched bytes stay valid.
                # Re-install only if the caller needs a pinned residency.
                if latch.superseded:
                    return _STALE
                frame = _Frame(data)
                self._install(key, frame)
            if pin and frame is not None:
                self._pin_locked(frame)
        if decoder is None:
            return data
        return self._decode_onto_frame(key, data, decoder)

    def put(self, pfile: PagedFile, page_id: int, data: bytes) -> None:
        """Install new page contents; written back on eviction or flush."""
        if len(data) > pfile.page_size:
            raise BufferPoolError("payload exceeds page size")
        with self._lock:
            key = self._key(pfile, page_id)
            self._bump_generation()
            latch = self._latches.pop(key, None)
            if latch is not None:
                # The in-flight read now holds older bytes than the pool:
                # its waiters still share them, later gets read afresh.
                latch.superseded = True
            frame = self._frames.get(key)
            if frame is None:
                frame = _Frame(b"")
                self._install(key, frame)
            frame.data = bytes(data)
            frame.payload = None
            frame.dirty = True
            self._policy.on_access(key)

    @property
    def generation(self) -> int:
        """Moves on every eviction, ``put`` and ``clear``.  Read without
        the lock: a stale value only makes :meth:`remember` refuse."""
        return self._generation

    def remember(self, token: Hashable, generation: int,
                 keys: Sequence[Tuple[int, int]], answer: Any) -> None:
        """Keep ``answer`` for :meth:`recall`: what a query computed from
        exactly the page reads ``keys`` — ``(file_id, page_id)`` in read
        order, all through this pool, all after ``generation`` was read.
        Kept only if the generation has not moved since (every frame is
        still the one that was read), every key is resident, and fewer
        than ``capacity`` plans are held.
        ``answer`` is shared with every later caller: immutable.
        """
        with self._lock:
            if (generation == self._generation
                    and len(self._plans) < self.capacity
                    and all(key in self._frames for key in keys)):
                self._plans[token] = (tuple(keys), answer)

    def recall(self, token: Hashable) -> Any:
        """The answer remembered under ``token``, or ``None``.  A plan is
        held only while its generation is current, i.e. while re-issuing
        its reads would hit on every page; recalling it books exactly
        those hits — ``hits``, the metric, ``on_access`` per key in the
        recorded order — so every later eviction is the one the ``get``
        calls would have led to."""
        with self._lock:
            plan = self._plans.get(token)
            if plan is None:
                return None
            keys, answer = plan
            self.hits += len(keys)
            self._m_hits.inc(len(keys))
            on_access = self._policy.on_access
            for key in keys:
                on_access(key)
            return answer

    def unpin(self, pfile: PagedFile, page_id: int) -> None:
        with self._lock:
            key = (pfile.file_id, page_id)
            frame = self._frames.get(key)
            if frame is None or frame.pin_count == 0:
                raise BufferPoolError(f"unpin of unpinned page {page_id}")
            frame.pin_count -= 1
            self._m_unpins.inc()

    def contains(self, pfile: PagedFile, page_id: int) -> bool:
        with self._lock:
            return (pfile.file_id, page_id) in self._frames

    def flush(self) -> None:
        """Write back every dirty frame (keeps frames resident).

        Write-back order is the policy's eviction order (for LRU: least
        recently used first), matching the order evictions would have
        flushed them.
        """
        with self._lock:
            for key in self._policy.keys():
                frame = self._frames.get(key)
                if frame is not None and frame.dirty:
                    fid, page_id = key
                    # Flush write-back mirrors the eviction exception: same
                    # pool->file lock order, and the frame table must not
                    # change mid-flush, so the lock stays held.
                    self._files[fid].write_page(page_id, frame.data)  # repro: ignore[RPR012]
                    self._m_writebacks.inc()
                    frame.dirty = False

    def clear(self) -> None:
        """Flush and drop all frames *and* file references.

        Fails if any page is pinned.  Dropping ``_files`` matters: the
        pool must not keep closed or discarded ``PagedFile`` objects
        alive after the caller is done with them.
        """
        with self._lock:
            if any(f.pin_count for f in self._frames.values()):
                raise BufferPoolError("cannot clear: pinned pages present")
            self.flush()
            self._bump_generation()
            self._frames.clear()
            self._policy.clear()
            self._files.clear()
            self._m_resident.set(0)

    @property
    def resident_pages(self) -> int:
        with self._lock:
            return len(self._frames)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Demand-read counters (stable key order: the reports that
        embed this block are byte-diffed)."""
        with self._lock:
            return {"capacity": self.capacity,
                    "hits": self.hits,
                    "misses": self.misses,
                    "coalesced": self.coalesced,
                    "evictions": self.evictions,
                    "hit_rate": self.hit_rate}

    def __repr__(self) -> str:
        return (f"BufferPool(capacity={self.capacity}, "
                f"policy={self._policy.name}, "
                f"resident={self.resident_pages}, hits={self.hits}, "
                f"misses={self.misses})")
