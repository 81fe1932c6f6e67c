"""``repro crash`` — a deterministic crash-point matrix over the journal.

The crash-consistency claim (DESIGN.md §12) is only as good as its
worst I/O boundary, so this harness does not sample: it *enumerates*.
A probe run of a seeded write workload records every crash point the
storage layer passes through — each page write and read, each commit
marker append, each journal fsync, each checkpoint page copy, the data
fsync, the journal reset, and every boundary inside recovery itself.
The sweep then re-runs the workload once per boundary, kills it exactly
there (:class:`~repro.errors.SimulatedCrash` abandons all in-memory
state; :meth:`~repro.storage.pagedfile.PagedFile.crash` models the
power loss), recovers, and checks three invariants:

* **Atomicity** — every recovered page image equals some transaction
  snapshot ``S_j`` of the workload, with ``durable(c) <= j <=
  appended(c)``: at least every fsync'd commit survived, and nothing
  beyond the last commit marker that physically reached the journal
  was invented.
* **Idempotence** — recovering the recovered file is a no-op, byte for
  byte (data file and journal compared after a second open/close).
* **Recovery crashes safely** — the crashed state is re-recovered with
  a *nested* sweep that kills recovery at each of its own boundaries;
  after a final clean open the file is byte-identical to the
  reference recovery that was never interrupted.

The report is plain dict/list/scalar data, a pure function of the
seed: two calls with the same seed must produce byte-identical JSON,
which the CI crash-matrix job diffs.  No paths, timestamps or
environment details appear in it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulatedCrash
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.storage import pageio
from repro.storage.faults import FaultInjector
from repro.storage.journal import journal_path
from repro.storage.pagedfile import PagedFile

#: Byte-determinism marker: opts this module into RPR013's hygiene
#: checks — the CI crash job diffs two runs of the report bytes.
DETERMINISTIC_REPORT = True

_DATA_FILE = "crash.pages"
_COMPONENT = "crash"

#: Shape of the journaled file and of the workload: each transaction
#: writes ``WRITES_PER_TXN`` pages, reads one back and commits, and
#: every second one checkpoints.
PAGES = 8
PAGE_SIZE = 128
TXNS = 5
WRITES_PER_TXN = 3


# -- the seeded workload -----------------------------------------------------
#
# Pure functions of (seed, txn, write index, page id): the sweep re-runs
# the workload dozens of times and every run must be identical.  The
# payload is a mod-251 byte ramp — consecutive byte values, so it can
# never contain the journal's non-consecutive record magic b"RWAL" and
# recovery's torn-tail resync scan cannot false-positive inside a page.

def _page_for(txn: int, w: int) -> int:
    return (7 * txn + 3 * w) % PAGES


def _payload(seed: int, txn: int, w: int, pid: int) -> bytes:
    base = seed + 31 * txn + 7 * w + 13 * pid
    return bytes((base + i) % 251 for i in range(PAGE_SIZE))


def _expected_states(seed: int) -> List[Dict[int, bytes]]:
    """``S_0 .. S_TXNS``: page images after 0, 1, ... committed txns."""
    current = {pid: bytes(PAGE_SIZE) for pid in range(PAGES)}
    states = [dict(current)]
    for txn in range(TXNS):
        for w in range(WRITES_PER_TXN):
            pid = _page_for(txn, w)
            current[pid] = _payload(seed, txn, w, pid)
        states.append(dict(current))
    return states


def _run_workload(datadir: str, seed: int,
                  injector: Optional[FaultInjector],
                  holder: List[PagedFile]) -> None:
    """Run the seeded workload; ``holder`` receives the file as soon as
    it exists so a caller catching :class:`SimulatedCrash` can call
    :meth:`~PagedFile.crash` on it."""
    path = os.path.join(datadir, _DATA_FILE)
    pfile = PagedFile("crashdata", page_size=PAGE_SIZE, path=path,
                      journal=True, faults=injector)
    holder.append(pfile)
    if pfile.num_pages < PAGES:
        pfile.allocate_many(PAGES - pfile.num_pages)
    for txn in range(TXNS):
        for w in range(WRITES_PER_TXN):
            pid = _page_for(txn, w)
            pageio.write_page(pfile, pid, _payload(seed, txn, w, pid),
                              component=_COMPONENT)
        # A read inside the txn keeps read boundaries in the matrix
        # (and exercises the overlay-serving path under faults).
        pageio.read_page(pfile, _page_for(txn, 0), component=_COMPONENT)
        pfile.commit()
        if txn % 2 == 1:
            pfile.checkpoint()
    pfile.close()


def _probe_boundaries(workdir: str, seed: int) -> List[str]:
    """Run the workload once with an armed-but-unreachable crash counter
    to learn the full ordered list of crash-point labels."""
    datadir = os.path.join(workdir, "probe")
    os.makedirs(datadir)
    injector = FaultInjector(seed=seed)
    injector.crash_after_ops(10 ** 9)
    _run_workload(datadir, seed, injector, holder=[])
    return list(injector.crash_trace)


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _file_state(datadir: str) -> Tuple[bytes, bytes]:
    """(data bytes, journal bytes) — the unit of byte-identity checks."""
    path = os.path.join(datadir, _DATA_FILE)
    return _read_file(path), _read_file(journal_path(path))


def _restore(src: Tuple[bytes, bytes], datadir: str) -> str:
    os.makedirs(datadir)
    path = os.path.join(datadir, _DATA_FILE)
    with open(path, "wb") as fh:
        fh.write(src[0])
    with open(journal_path(path), "wb") as fh:
        fh.write(src[1])
    return path


def _observe_pages(datadir: str) -> Tuple[PagedFile, Dict[int, bytes]]:
    """Clean reopen (recovery runs) and read back every page."""
    pfile = PagedFile("crashdata", page_size=PAGE_SIZE,
                      path=os.path.join(datadir, _DATA_FILE), journal=True)
    observed = {pid: pageio.read_page(pfile, pid, component=_COMPONENT)
                for pid in range(min(PAGES, pfile.num_pages))}
    for pid in range(pfile.num_pages, PAGES):
        observed[pid] = bytes(PAGE_SIZE)   # extent lost with the crash
    return pfile, observed


def _recovery_crash_sweep(crashed: Tuple[bytes, bytes], workdir: str,
                          reference: Tuple[bytes, bytes], *, seed: int,
                          violations: List[str],
                          point: int) -> Dict[str, object]:
    """Kill recovery of ``crashed`` at each of its own boundaries, then
    recover cleanly and demand byte-identity with ``reference``."""
    probe_dir = os.path.join(workdir, "rprobe")
    path = _restore(crashed, probe_dir)
    injector = FaultInjector(seed=seed)
    injector.crash_after_ops(10 ** 9)
    pfile = PagedFile("crashdata", page_size=PAGE_SIZE, path=path,
                      journal=True, faults=injector)
    pfile.close()
    boundaries = len(injector.crash_trace)
    ok = True
    for r in range(1, boundaries + 1):
        rdir = os.path.join(workdir, f"r{r:03d}")
        rpath = _restore(crashed, rdir)
        rinj = FaultInjector(seed=seed)
        rinj.crash_after_ops(r)
        crashed_as_armed = False
        try:
            PagedFile("crashdata", page_size=PAGE_SIZE, path=rpath,
                      journal=True, faults=rinj)
        except SimulatedCrash:
            crashed_as_armed = True
        if not crashed_as_armed:
            ok = False
            violations.append(
                f"point {point}: recovery boundary {r} did not crash")
            continue
        # Second-chance recovery must converge to the reference bytes.
        clean = PagedFile("crashdata", page_size=PAGE_SIZE, path=rpath,
                          journal=True)
        clean.close()
        if _file_state(rdir) != reference:
            ok = False
            violations.append(
                f"point {point}: crash at recovery boundary {r} "
                f"({injector.crash_trace[r - 1]}) diverged from the "
                f"uninterrupted recovery")
    return {"boundaries": boundaries, "converged": ok}


def _sweep_point(c: int, label: str, workdir: str,
                 states: List[Dict[int, bytes]], durable: int,
                 appended: int, violations: List[str],
                 seed: int) -> Dict[str, object]:
    """Crash the workload at boundary ``c``, recover, check invariants."""
    datadir = os.path.join(workdir, f"point-{c:03d}")
    os.makedirs(datadir)
    injector = FaultInjector(seed=seed)
    injector.crash_after_ops(c)
    holder: List[PagedFile] = []
    crashed_as_armed = False
    try:
        _run_workload(datadir, seed, injector, holder)
    except SimulatedCrash:
        crashed_as_armed = True
    if not crashed_as_armed:
        raise AssertionError(f"boundary {c} did not crash")
    if holder:
        holder[0].crash()
    crashed = _file_state(datadir)

    pfile, observed = _observe_pages(datadir)
    recovery = pfile.last_recovery
    matches = [j for j, state in enumerate(states) if state == observed]
    recovered = max(matches) if matches else -1
    atomic = bool(matches) and durable <= recovered <= appended
    if not atomic:
        violations.append(
            f"point {c} ({label}): recovered state {recovered} outside "
            f"[{durable}, {appended}] "
            f"({'no snapshot matched' if not matches else 'commit bound'})")

    # Idempotence: close, reopen, and the second recovery must be a
    # no-op that leaves every byte alone.
    pfile.close()
    once = _file_state(datadir)
    again = PagedFile("crashdata", page_size=PAGE_SIZE,
                      path=os.path.join(datadir, _DATA_FILE), journal=True)
    rerun = again.last_recovery
    again.close()
    idempotent = (rerun is None or rerun.is_noop()) \
        and _file_state(datadir) == once
    if not idempotent:
        violations.append(
            f"point {c} ({label}): recovery was not idempotent")

    recovery_crash = _recovery_crash_sweep(
        crashed, datadir, once, seed=seed, violations=violations,
        point=c)
    return {
        "boundary": c,
        "label": label,
        "durable_commits": durable,
        "appended_commits": appended,
        "recovered_state": recovered,
        "pages_replayed": recovery.pages_replayed if recovery else 0,
        "tail_truncated_bytes":
            recovery.tail_truncated_bytes if recovery else 0,
        "atomic": atomic,
        "idempotent": idempotent,
        "recovery_crash": recovery_crash,
    }


# -- the report --------------------------------------------------------------

def _metric_totals(registry: MetricsRegistry) -> Dict[str, float]:
    """Sum the crash-consistency counters across their file labels
    (one ``total()`` per name, so the constant stays visible at the
    call site — RPR002)."""
    return {
        names.JOURNAL_RECORDS: registry.total(names.JOURNAL_RECORDS),
        names.JOURNAL_COMMITS: registry.total(names.JOURNAL_COMMITS),
        names.RECOVERY_PAGES_REPLAYED:
            registry.total(names.RECOVERY_PAGES_REPLAYED),
        names.RECOVERY_TAIL_TRUNCATIONS:
            registry.total(names.RECOVERY_TAIL_TRUNCATIONS),
        names.CRASHES_INJECTED: registry.total(names.CRASHES_INJECTED),
    }


def run_crash_sweep(*, seed: int = 0,
                    workdir: Optional[str] = None) -> Dict[str, object]:
    """Run the full crash matrix; returns the JSON-ready report.

    Parameters
    ----------
    seed:
        Seeds both the page payloads and the fault injectors.
    workdir:
        Scratch directory (a temp dir by default, removed afterwards).
        Never appears in the report.
    """
    cleanup = workdir is None
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-crash-")
    registry = MetricsRegistry()
    try:
        with use_registry(registry):
            labels = _probe_boundaries(workdir, seed)
            states = _expected_states(seed)
            violations: List[str] = []
            sweep: List[Dict[str, object]] = []
            for c in range(1, len(labels) + 1):
                # Ticks 1..c-1 ran their operation; tick c did not —
                # so a commit is durable at c iff its journal fsync
                # tick is strictly below c, and a commit marker exists
                # iff its append tick is.
                executed = labels[:c - 1]
                durable = sum(
                    1 for lbl in executed if lbl.startswith("journal-sync:"))
                appended = sum(
                    1 for lbl in executed
                    if lbl.startswith("journal-commit:"))
                sweep.append(_sweep_point(
                    c, labels[c - 1], workdir, states, durable, appended,
                    violations, seed))
            report: Dict[str, object] = {
                "crash": {"seed": seed, "pages": PAGES,
                          "page_size": PAGE_SIZE, "txns": TXNS,
                          "writes_per_txn": WRITES_PER_TXN,
                          "boundaries": len(labels), "labels": labels},
                "sweep": sweep,
                "metrics": _metric_totals(registry),
                "violations": violations,
                "summary": {
                    "points": len(sweep),
                    "recovery_points": sum(
                        rc["boundaries"] for rc in
                        (entry["recovery_crash"] for entry in sweep)),
                    "violations": len(violations),
                    "ok": not violations,
                },
            }
            return report
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)
