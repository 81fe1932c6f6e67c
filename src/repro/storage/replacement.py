"""The buffer pool's page-replacement order: 2Q.

The pool owns the frame table and the counters; :class:`TwoQPolicy`
owns only the *ordering* decision — which resident key should be
evicted next.  It is called only by its pool and never calls back into
the pool or a file.

2Q is the algorithm of Johnson & Shasha (VLDB '94).  First-touch pages
enter a small FIFO (``A1in``); only pages re-read *after* falling out of
the FIFO — proven re-reference, tracked by a ghost list of evicted keys
(``A1out``) — enter the protected LRU (``Am``).  A burst of single-touch
pages (one session scanning a cold route) churns the FIFO but cannot
flush another session's hot working set out of ``Am``; that scan
resistance is exactly what the many-session undersized-pool regime
needs.  Plain LRU was measured against it on every pooled regime and
never won (DESIGN.md, "2Q replacement").
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Dict, Iterator, List, Tuple

from repro.errors import BufferPoolError
from repro.obs import names
from repro.obs.metrics import get_registry

#: Frame key: ``(file_id, page_id)`` — the pool's own key type.
KeyT = Tuple[int, int]

#: 2Q's queue sizes as fractions of the pool capacity (the paper's
#: defaults): the ``A1in`` FIFO target and the ``A1out`` ghost list.
KIN_FRACTION = 0.25
KOUT_FRACTION = 0.5


class TwoQPolicy:
    """Scan-resistant 2Q replacement.

    Parameters
    ----------
    capacity:
        The pool's frame capacity; sizes the FIFO and ghost list
        (:data:`KIN_FRACTION`, :data:`KOUT_FRACTION`).
    pool_name:
        Metrics label; promotions and ghost hits are exported per
        pool (with the label ``policy="2q"``).
    """

    def __init__(self, capacity: int, *, pool_name: str = "default") -> None:
        if capacity < 1:
            raise BufferPoolError(
                f"capacity must be >= 1, got {capacity}")
        self.kin_pages = max(1, int(capacity * KIN_FRACTION))
        self.kout_pages = max(1, int(capacity * KOUT_FRACTION))
        #: First-touch FIFO (insertion order; accesses do not reorder).
        self._a1in: "OrderedDict[KeyT, None]" = OrderedDict()
        #: Protected LRU of proven re-referenced pages.
        self._am: "OrderedDict[KeyT, None]" = OrderedDict()
        #: Ghost list: keys recently evicted from A1in (no frame data).
        self._ghosts: "OrderedDict[KeyT, None]" = OrderedDict()
        self.promotions = 0
        self.ghost_hits = 0
        registry = get_registry()
        self._m_promotions = registry.counter(
            names.REPLACEMENT_PROMOTIONS, pool=pool_name, policy="2q")
        self._m_ghost_hits = registry.counter(
            names.REPLACEMENT_GHOST_HITS, pool=pool_name, policy="2q")

    def on_insert(self, key: KeyT) -> None:
        """A frame for ``key`` became resident."""
        if key in self._ghosts:
            # Re-read after FIFO eviction: proven re-reference, so the
            # page skips A1in and enters the protected queue.
            del self._ghosts[key]
            self.ghost_hits += 1
            self.promotions += 1
            self._m_ghost_hits.inc()
            self._m_promotions.inc()
            self._am[key] = None
            self._am.move_to_end(key)
        else:
            self._a1in[key] = None

    def on_access(self, key: KeyT) -> None:
        """A resident frame for ``key`` was hit."""
        if key in self._am:
            self._am.move_to_end(key)
        # Hits inside A1in do not reorder the FIFO: a correlated burst
        # of touches right after first read is not evidence of reuse
        # (that is the scan-resistance core of 2Q).

    def on_evict(self, key: KeyT) -> None:
        """The pool evicted ``key`` (always a key it was told about)."""
        if key in self._a1in:
            del self._a1in[key]
            self._ghosts[key] = None
            while len(self._ghosts) > self.kout_pages:
                self._ghosts.popitem(last=False)
        elif key in self._am:
            del self._am[key]
        else:
            raise BufferPoolError(f"evict of untracked key {key!r}")

    def victims(self) -> Iterator[KeyT]:
        """Resident keys in eviction-preference order.

        The pool evicts the first: every resident frame is evictable, so
        this order *is* the eviction order.  The iterator walks the
        queues in place, so eviction is O(1), not the capacity: the pool
        calls nothing else on the policy meanwhile and abandons the
        iterator after its first key.
        """
        prefer_a1 = len(self._a1in) > self.kin_pages or not self._am
        first, second = ((self._a1in, self._am) if prefer_a1
                         else (self._am, self._a1in))
        return chain(first, second)

    def keys(self) -> List[KeyT]:
        """All resident keys: the FIFO, then the protected queue."""
        return list(self._a1in) + list(self._am)

    def clear(self) -> None:
        """Forget all resident keys and ghosts (pool ``clear()``)."""
        self._a1in.clear()
        self._am.clear()
        self._ghosts.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for reports (stable key order)."""
        return {"ghost_hits": self.ghost_hits,
                "promotions": self.promotions}
