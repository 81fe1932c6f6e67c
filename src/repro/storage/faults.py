"""Seeded, deterministic fault injection for :class:`PagedFile`.

Production storage fails; the paper's V-pages are exactly the data most
exposed to it (every flip and every visible node touches one).  This
module simulates those failures so the degradation ladder (retry →
internal LoD → fatal; see DESIGN.md) can be exercised on every PR:

* ``read-error`` / ``write-error`` — transient :class:`TransientIOError`
  raised before the backend is touched (the access is still charged, as
  a real failed I/O still spins the disk);
* ``bit-flip`` — one random payload bit flipped on the way back from a
  read, caught by the CRC trailer as :class:`PageCorruptError`;
* ``torn-write`` — only a prefix of the payload reaches the medium while
  the trailer CRC describes the full page, so the *next read* of that
  page surfaces the corruption — the classic power-loss failure shape;
* ``latency`` — a simulated-clock latency spike charged to the file's
  :class:`~repro.storage.disk.IOStats`;
* ``fail-after`` — every matching operation past the first ``after_ops``
  fails, modelling a device that drops off the bus mid-session.

Orthogonal to the plan rules, the injector also carries *deterministic
crash points*: :meth:`FaultInjector.crash_after_ops` arms a countdown,
and the ``n``-th I/O boundary thereafter raises a typed
:class:`~repro.errors.SimulatedCrash` *before* the boundary's operation
runs.  Boundaries are every page read/write plus every journal commit,
sync, checkpoint and recovery step, so a sweep over ``n`` visits every
state a power loss could leave behind (``repro crash`` does exactly
that).  A crash is not a fault rule on purpose: it consumes no RNG, so
arming it never perturbs the plan's fault sequence.

Everything is driven by one ``random.Random(seed)``, and replays are
single-threaded, so the same plan + seed + workload reproduces the
identical fault sequence (the chaos CI job diffs two runs to prove it).

This module is a designated *fault boundary*: lint rule RPR008 exempts
it (together with ``repro.storage.retry``) from the ban on swallowing
exceptions, because absorbing and transmuting failures is its job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SimulatedCrash, StorageError, TransientIOError
from repro.obs import names
from repro.obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.pagedfile import PagedFile

#: The fault kinds a :class:`FaultRule` may carry.
FAULT_KINDS = ("read-error", "write-error", "torn-write", "bit-flip",
               "latency", "fail-after")


@dataclass(frozen=True)
class FaultRule:
    """One fault source: what to inject, where, how often.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    match:
        Substring of the target :class:`PagedFile` name (``""`` matches
        every file).  Built files are named ``tree``, ``models``,
        ``vpages-<scheme>`` and ``vindex-<scheme>``.
    rate:
        Probability that a matching operation is hit (ignored by
        ``fail-after``, which is a deterministic threshold).
    after_ops:
        For ``fail-after``: matching operations allowed before the file
        starts failing.
    latency_ms:
        For ``latency``: simulated milliseconds added per hit.
    times:
        Optional cap on injections from this rule (``None`` = unbounded).
        ``times=1`` expresses "fail exactly once, then recover" — the
        shape a retry must survive.
    """

    kind: str
    match: str = ""
    rate: float = 1.0
    after_ops: int = 0
    latency_ms: float = 0.0
    times: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise StorageError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {sorted(FAULT_KINDS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise StorageError(f"fault rate must be in [0, 1]: {self.rate}")
        if self.after_ops < 0:
            raise StorageError(f"after_ops must be >= 0: {self.after_ops}")
        if not (math.isfinite(self.latency_ms) and self.latency_ms >= 0.0):
            raise StorageError(
                f"latency_ms must be finite and >= 0: {self.latency_ms}")
        if self.times is not None and self.times < 1:
            raise StorageError(f"times must be >= 1: {self.times}")


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of fault rules."""

    name: str
    rules: Tuple[FaultRule, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise StorageError(f"fault plan {self.name!r} has no rules")


class FaultInjector:
    """Applies a :class:`FaultPlan` to one or more paged files.

    The injector owns the only RNG, so a fixed ``(plan, seed, workload)``
    triple yields a byte-identical fault sequence.  Install it with
    :meth:`install`; remove it with :meth:`uninstall` (shared test
    fixtures must always uninstall, or faults leak into later tests).
    """

    def __init__(self, plan: Optional[FaultPlan] = None, *,
                 seed: int) -> None:
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(seed)
        #: Injection count per fault kind (for reports).
        self.injected: Dict[str, int] = {}
        #: Plan rules, or none — a plan-less injector is a pure
        #: crash-point source for the crash harness.
        self._rules: Tuple[FaultRule, ...] = \
            () if plan is None else plan.rules
        self._plan_name = plan.name if plan is not None else "crash-only"
        self._rule_hits: List[int] = [0] * len(self._rules)
        self._ops_per_file: Dict[str, int] = {}
        self._installed: List["PagedFile"] = []
        self._crash_after: Optional[int] = None
        self._crash_ops = 0
        #: Ordered labels of every boundary seen while armed — the
        #: crash harness probes a workload once to learn its matrix.
        self.crash_trace: List[str] = []

    # -- wiring ------------------------------------------------------------

    def install(self, *pfiles: "PagedFile") -> None:
        """Attach this injector to ``pfiles`` (idempotent per file)."""
        for pfile in pfiles:
            if pfile.faults is not None and pfile.faults is not self:
                raise StorageError(
                    f"{pfile.name}: another fault injector is installed")
            pfile.install_faults(self)
            if pfile not in self._installed:
                self._installed.append(pfile)

    def uninstall(self) -> None:
        """Detach from every installed file."""
        for pfile in self._installed:
            if pfile.faults is self:
                pfile.install_faults(None)
        self._installed.clear()

    def total_injected(self) -> int:
        return sum(self.injected.values())

    # -- deterministic crash points ------------------------------------------

    def crash_after_ops(self, n: Optional[int]) -> None:
        """Arm (or with None disarm) the crash countdown.

        With ``n``, the ``n``-th I/O boundary after this call raises
        :class:`SimulatedCrash` before its operation runs; boundaries
        ``1 .. n-1`` execute normally and are recorded in
        :attr:`crash_trace`.
        """
        if n is not None and n < 1:
            raise StorageError(f"crash_after_ops must be >= 1, got {n}")
        self._crash_after = n
        self._crash_ops = 0
        self.crash_trace = []

    def crash_point(self, label: str) -> None:
        """One I/O boundary: count it, and crash if the countdown hit.

        A no-op unless :meth:`crash_after_ops` armed the countdown, so
        the hot path of plan-only injection never pays for it.
        """
        if self._crash_after is None:
            return
        self._crash_ops += 1
        self.crash_trace.append(label)
        if self._crash_ops >= self._crash_after:
            self.injected["crash"] = self.injected.get("crash", 0) + 1
            # Lazily created: fault-free runs register no new series.
            get_registry().counter(names.CRASHES_INJECTED).inc()
            raise SimulatedCrash(
                f"simulated crash at I/O boundary {self._crash_ops} "
                f"({label})")

    # -- rule machinery ------------------------------------------------------

    def _record(self, index: int, kind: str) -> None:
        self._rule_hits[index] += 1
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def _fires(self, index: int, rule: FaultRule, name: str) -> bool:
        """Whether ``rule`` hits this operation on file ``name``.

        Only called for rules whose ``match`` accepted the file, and the
        RNG is only consumed for probabilistic rules — keeping the
        random stream a pure function of the matching-operation
        sequence.
        """
        if rule.times is not None and self._rule_hits[index] >= rule.times:
            return False
        if rule.kind == "fail-after":
            return self._ops_per_file.get(name, 0) > rule.after_ops
        return self._rng.random() < rule.rate

    def _before(self, pfile: "PagedFile", *, write: bool) -> None:
        """Run the control-path rules (errors, latency) for one access.

        Payload rules (``bit-flip``, ``torn-write``) are handled by the
        filter hooks so each rule rolls the RNG at most once per access.
        """
        name = pfile.name
        verb = "write" if write else "read"
        # The crash point comes first: a crash models the process dying
        # *before* the operation, so the op must not count or fire rules.
        self.crash_point(f"{verb}:{name}")
        self._ops_per_file[name] = self._ops_per_file.get(name, 0) + 1
        for index, rule in enumerate(self._rules):
            if rule.kind in ("bit-flip", "torn-write"):
                continue
            if rule.kind == "read-error" and write:
                continue
            if rule.kind == "write-error" and not write:
                continue
            if rule.match and rule.match not in name:
                continue
            if not self._fires(index, rule, name):
                continue
            self._record(index, rule.kind)
            if rule.kind == "latency":
                pfile.charge_delay_ms(rule.latency_ms)
            elif rule.kind == "fail-after":
                raise TransientIOError(
                    f"{name}: device gone after {rule.after_ops} ops "
                    f"(fault plan {self._plan_name!r})")
            else:
                raise TransientIOError(
                    f"{name}: injected transient {verb} error "
                    f"(fault plan {self._plan_name!r})")

    def _filter(self, pfile: "PagedFile", data: bytes, kind: str) -> bytes:
        """Run the payload rules of ``kind`` against one page image."""
        for index, rule in enumerate(self._rules):
            if rule.kind != kind:
                continue
            if rule.match and rule.match not in pfile.name:
                continue
            if not self._fires(index, rule, pfile.name):
                continue
            self._record(index, rule.kind)
            if kind == "bit-flip":
                data = self._flip_bit(data)
            else:
                data = self._tear(data)
        return data

    def _flip_bit(self, data: bytes) -> bytes:
        buf = bytearray(data)
        bit = self._rng.randrange(max(len(buf), 1) * 8)
        buf[bit // 8] ^= 1 << (bit % 8)
        return bytes(buf)

    @staticmethod
    def _tear(data: bytes) -> bytes:
        half = len(data) // 2
        return data[:half] + bytes(len(data) - half)

    # -- PagedFile hooks ------------------------------------------------------

    def before_read(self, pfile: "PagedFile", page_id: int) -> None:
        """May raise or charge latency; runs after the access is charged."""
        self._before(pfile, write=False)

    def filter_read(self, pfile: "PagedFile", page_id: int,
                    data: bytes) -> bytes:
        """Corrupt the payload on its way back from the backend."""
        return self._filter(pfile, data, "bit-flip")

    def before_write(self, pfile: "PagedFile", page_id: int) -> None:
        self._before(pfile, write=True)

    def filter_write(self, pfile: "PagedFile", page_id: int,
                     data: bytes) -> bytes:
        """Corrupt the payload on its way to the backend (torn write)."""
        return self._filter(pfile, data, "torn-write")

    def filter_journal(self, name: str, payload: bytes) -> bytes:
        """Corrupt a journal record on its way into the WAL (bit rot).

        Applies the plan's ``bit-flip`` rules against the journal's own
        match name (``<file>.wal``), *after* the record's framing CRC
        was computed — so a hit becomes the CRC mismatch recovery must
        classify as interior corruption or a torn tail.
        """
        for index, rule in enumerate(self._rules):
            if rule.kind != "bit-flip":
                continue
            if rule.match and rule.match not in name:
                continue
            if not self._fires(index, rule, name):
                continue
            self._record(index, rule.kind)
            payload = self._flip_bit(payload)
        return payload

    def __repr__(self) -> str:
        return (f"FaultInjector(plan={self._plan_name!r}, "
                f"seed={self.seed}, injected={self.total_injected()})")


# -- named plans ------------------------------------------------------------

_NAMED_PLANS: Dict[str, FaultPlan] = {
    # Flaky-but-recoverable reads on V-page and index files: the retry
    # layer should absorb almost all of these.
    "transient-reads": FaultPlan("transient-reads", (
        FaultRule("read-error", match="vpages", rate=0.10),
        FaultRule("read-error", match="vindex", rate=0.05),
    )),
    # Silent media corruption on V-pages: CRC catches it, search
    # degrades the node to its internal LoD.
    "corrupt-vpages": FaultPlan("corrupt-vpages", (
        FaultRule("bit-flip", match="vpages", rate=0.08),
    )),
    # A congested device: latency spikes on every file, nothing fails.
    "slow-disk": FaultPlan("slow-disk", (
        FaultRule("latency", rate=0.20, latency_ms=25.0),
    )),
    # The V-page device drops off the bus mid-session; every flip and
    # visible node afterwards must degrade.  (The threshold is low on
    # purpose: a small-scale session issues only a few dozen V-page
    # ops, and the plan must actually black out within one.)
    "vpage-blackout": FaultPlan("vpage-blackout", (
        FaultRule("fail-after", match="vpages", after_ops=10),
    )),
    # The CI plan: transient errors (exercises retry), corruption
    # (exercises degrade) and latency (exercises the simulated clock),
    # all at rates that leave the R-tree file untouched.
    "aggressive": FaultPlan("aggressive", (
        FaultRule("read-error", match="vpages", rate=0.15),
        FaultRule("read-error", match="vindex", rate=0.10),
        FaultRule("bit-flip", match="vpages", rate=0.08),
        FaultRule("latency", rate=0.10, latency_ms=10.0),
    )),
}


def plan_names() -> List[str]:
    """Sorted names of the built-in fault plans."""
    return sorted(_NAMED_PLANS)


def named_plan(name: str) -> FaultPlan:
    """Look up a built-in plan; raises :class:`StorageError` if unknown."""
    plan = _NAMED_PLANS.get(name)
    if plan is None:
        raise StorageError(
            f"unknown fault plan {name!r}; choose from {plan_names()}")
    return plan


__all__ = ["FAULT_KINDS", "FaultRule", "FaultPlan", "FaultInjector",
           "named_plan", "plan_names"]
