"""Outside-in tracer: spans around the program's public callables.

No file under ``src/`` is touched.  :class:`Tracer` replaces, for the
duration of one traced round, each listed callable by a wrapper that
records a span — class methods on the class itself, module-level
functions in *every* loaded ``repro`` module that holds a reference
(``serving/pooled.py`` does ``from repro.storage.serializer import
decode_node``, so patching ``serializer.decode_node`` alone would record
nothing).  Uninstalling restores every original, identity-checked.

Spans are kept in memory as ``(layer, callable, parent, start, end)``
rows per thread and summarised (or written out) after the round.  Each
thread has its own span stack, so phase-2 scoring on the scheduler's
worker threads nests correctly; a layer's *self time* is its spans'
duration minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``layer -> [(module, qualified name)]``: where each layer's boundary
#: spans go.  ``Class.method`` patches the class; a bare name patches a
#: module-level function wherever it was imported.  Abstract methods are
#: listed on each concrete subclass.
LAYER_TARGETS: Dict[str, Sequence[Tuple[str, str]]] = {
    "serving.scheduler": [
        ("repro.serving.scheduler", "SessionScheduler.run")],
    "serving.session": [
        ("repro.serving.session", "ServingSession.step"),
        ("repro.serving.session", "ServingSession.install_fidelity")],
    "serving.accounting": [
        ("repro.core.hdov_tree", "HDoVEnvironment.snapshot"),
        ("repro.core.hdov_tree", "HDoVEnvironment.delta")],
    "walkthrough.metrics": [
        ("repro.walkthrough.metrics", "FidelityMetric.score_hdov")],
    "core.delta": [
        ("repro.core.delta", "DeltaSearch.query_cell")],
    "core.search": [
        ("repro.core.search", "HDoVSearch.query_cell")],
    "core.schemes": [
        ("repro.core.schemes.base", "StorageScheme.flip_to_cell"),
        ("repro.core.schemes.horizontal", "HorizontalScheme.ventries"),
        ("repro.core.schemes.vertical", "VerticalScheme.ventries"),
        ("repro.core.schemes.indexed_vertical",
         "IndexedVerticalScheme.ventries")],
    "storage.vpagecodec": [
        ("repro.storage.vpagecodec", "RawVPageCodec.read"),
        ("repro.storage.vpagecodec", "PackedDeltaVPageCodec.read")],
    "storage.serializer": [
        ("repro.storage.serializer", "decode_node"),
        ("repro.storage.serializer", "decode_vpage"),
        ("repro.storage.serializer", "decode_index_pairs"),
        ("repro.storage.serializer", "decode_pointer_array")],
    "serving.pooled": [
        ("repro.serving.pooled", "PooledNodeStore.read_node")],
    "rtree.persist": [
        ("repro.rtree.persist", "NodeStore.read_node")],
    "storage.buffer": [
        ("repro.storage.buffer", "BufferPool.get")],
    "storage.pageio": [
        ("repro.storage.pageio", "read_page"),
        ("repro.storage.pageio", "read_run"),
        ("repro.storage.pageio", "write_page")],
    "obs.metrics": [
        ("repro.obs.metrics", "MetricsRegistry.counter")],
    "storage.pagedfile": [
        ("repro.storage.pagedfile", "PagedFile.read_page"),
        ("repro.storage.pagedfile", "PagedFile.read_run"),
        ("repro.storage.pagedfile", "PagedFile.write_page"),
        ("repro.storage.pagedfile", "PagedFile.commit"),
        ("repro.storage.pagedfile", "PagedFile.checkpoint")],
    "storage.journal": [
        ("repro.storage.journal", "WriteAheadJournal.append_page_image"),
        ("repro.storage.journal", "WriteAheadJournal.append_commit_marker"),
        ("repro.storage.journal", "WriteAheadJournal.sync"),
        ("repro.storage.journal", "WriteAheadJournal.reset")],
    "storage.recovery": [
        ("repro.storage.recovery", "recover")],
    "storage.objectstore": [
        ("repro.storage.objectstore", "ObjectStore.fetch_prefix")],
    # The benchmark's own interleaved calibration ticks: spans of their
    # own, so that their time is no layer's self time.
    "bench.calibration": [
        ("calibration", "Calibrator.tick")],
}


@dataclass(frozen=True)
class Span:
    """One recorded call.  ``parent`` indexes the caller's span in the
    same thread's span list (``-1``: no traced caller on that thread)."""

    layer: str
    name: str
    parent: int
    start_ns: int
    end_ns: int


@dataclass
class LayerTotals:
    """Per-layer (or per-callable) aggregate of a traced round."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6

    @property
    def us_per_call(self) -> float:
        return self.self_ns / 1e3 / self.calls if self.calls else 0.0


class Tracer:
    """Installs span wrappers, collects spans, restores the originals."""

    def __init__(self, targets: Optional[
            Dict[str, Sequence[Tuple[str, str]]]] = None) -> None:
        self._targets = dict(targets if targets is not None
                             else LAYER_TARGETS)
        #: (owner object, attribute, original, wrapper) per patch site.
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread ident -> that thread's rows ``[layer, name, parent,
        #: start, end]``, appended at span start so a child can point at
        #: its parent's index.  Per-thread lists keep the hot path
        #: lock-free.
        self._rows: Dict[int, List[List[Any]]] = {}
        self.installed = False

    # -- wrapping ---------------------------------------------------------

    def _thread_state(self) -> Tuple[List[List[Any]], List[int]]:
        rows: List[List[Any]] = []
        stack: List[int] = []
        self._local.state = (rows, stack)
        with self._lock:
            self._rows[threading.get_ident()] = rows
        return rows, stack

    def _wrap(self, layer: str, name: str,
              fn: Callable[..., Any]) -> Callable[..., Any]:
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                rows, stack = local.state
            except AttributeError:
                rows, stack = self._thread_state()
            row = [layer, name, stack[-1] if stack else -1, 0, 0]
            stack.append(len(rows))
            rows.append(row)
            row[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for layer, targets in self._targets.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    if not inspect.isfunction(original):
                        raise TypeError(
                            f"{module_name}.{qualname} is not a plain "
                            f"method")
                    wrapper = self._wrap(layer, qualname, original)
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original, wrapper))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, qualname, original)
                # Every module that did ``from x import fn`` holds its
                # own reference; patch them all.
                for holder in list(sys.modules.values()):
                    if not getattr(holder, "__name__", "").startswith(
                            "repro."):
                        continue
                    if vars(holder).get(qualname) is original:
                        setattr(holder, qualname, wrapper)
                        self._patches.append(
                            (holder, qualname, original, wrapper))
        self.installed = True

    def uninstall(self) -> None:
        """Restore every original; raises if a patch site was changed
        behind the tracer's back (identity-checked both ways)."""
        for owner, attr, original, wrapper in reversed(self._patches):
            if vars(owner).get(attr) is not wrapper:
                raise RuntimeError(
                    f"{owner!r}.{attr} changed while traced")
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} not restored")
        self._patches.clear()
        self.installed = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------------

    def spans(self) -> Dict[int, List[Span]]:
        """Recorded spans per thread ident."""
        with self._lock:
            return {thread: [Span(*row) for row in rows]
                    for thread, rows in self._rows.items()}

    def summarize(self, window_ns: Tuple[int, int]) -> "TraceSummary":
        return TraceSummary(self.spans(), window_ns)

    def write(self, path: str) -> None:
        """Dump the raw spans as JSON lines (written after the run)."""
        with open(path, "w", encoding="utf-8") as fh:
            for thread, spans in self.spans().items():
                for span in spans:
                    fh.write(json.dumps(
                        [thread, span.layer, span.name, span.parent,
                         span.start_ns, span.end_ns]) + "\n")


class TraceSummary:
    """Self-time ledger of one traced round.

    Only spans that start inside ``window_ns`` (``perf_counter_ns``
    stamps) count: a round's own preparation and answer checking also
    call into the program, and are not part of what is measured.
    """

    def __init__(self, spans: Dict[int, List[Span]],
                 window_ns: Tuple[int, int]) -> None:
        first, last = window_ns
        self.window_ns = last - first
        self.layers: Dict[str, LayerTotals] = {}
        self.callables: Dict[str, LayerTotals] = {}
        #: Self time per thread, to reconcile against the round's wall
        #: time on the load-generating thread.
        self.thread_self_ns: Dict[int, int] = {}
        for thread, thread_spans in spans.items():
            inside = [first <= span.start_ns <= last
                      for span in thread_spans]
            child_ns = [0] * len(thread_spans)
            for span, counted in zip(thread_spans, inside):
                if counted and span.parent >= 0:
                    child_ns[span.parent] += span.end_ns - span.start_ns
            thread_self = 0
            for index, span in enumerate(thread_spans):
                if not inside[index]:
                    continue
                duration = span.end_ns - span.start_ns
                self_ns = duration - child_ns[index]
                thread_self += self_ns
                for table, key in ((self.layers, span.layer),
                                   (self.callables, span.name)):
                    totals = table.setdefault(key, LayerTotals())
                    totals.calls += 1
                    totals.total_ns += duration
                    totals.self_ns += self_ns
            self.thread_self_ns[thread] = thread_self

    def layer(self, name: str) -> LayerTotals:
        return self.layers.get(name, LayerTotals())

    def callable(self, name: str) -> LayerTotals:
        return self.callables.get(name, LayerTotals())
