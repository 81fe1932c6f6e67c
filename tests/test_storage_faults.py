"""Fault injection, page integrity (CRC trailer) and retry-layer tests.

These exercise the PR 3 resilience stack bottom-up: the injector's
deterministic fault machinery, the CRC trailer that turns silent
corruption into :class:`PageCorruptError`, and the bounded retry at the
``pageio`` facade that absorbs :class:`TransientIOError`.
"""

import os

import pytest

from repro.errors import PageCorruptError, StorageError, TransientIOError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.storage import pageio
from repro.storage.disk import FREE_DISK, IOStats
from repro.storage.faults import (FaultInjector, FaultPlan, FaultRule,
                                  named_plan, plan_names)
from repro.storage.pagedfile import PagedFile
from repro.storage import retry
from repro.storage.retry import run_with_retry


def make_file(name="vpages-test", **kwargs):
    """Small mem-backed file on a free disk model (clean ms ledger)."""
    return PagedFile(name, page_size=64, disk=FREE_DISK, stats=IOStats(),
                     **kwargs)


def plan(*rules):
    return FaultPlan("test-plan", tuple(rules))


# -- retry rung --------------------------------------------------------------


def test_transient_fault_absorbed_by_retry():
    with use_registry(MetricsRegistry()) as registry:
        pf = make_file()
        pid = pf.append_page(b"payload")
        injector = FaultInjector(
            plan(FaultRule("read-error", rate=1.0, times=1)), seed=0)
        injector.install(pf)
        try:
            data = pageio.read_page(pf, pid, component="test")
        finally:
            injector.uninstall()
        assert data.startswith(b"payload")
        assert injector.injected == {"read-error": 1}
        assert registry.value(names.PAGEIO_RETRIES, file=pf.name) == 1
        assert registry.value(names.PAGEIO_GIVEUPS, file=pf.name) == 0


def test_retry_exhaustion_raises_and_counts_giveup():
    with use_registry(MetricsRegistry()) as registry:
        pf = make_file()
        pid = pf.append_page(b"payload")
        injector = FaultInjector(
            plan(FaultRule("read-error", rate=1.0)), seed=0)
        injector.install(pf)
        try:
            with pytest.raises(TransientIOError):
                run_with_retry(pf.read_page, pf, pid)
        finally:
            injector.uninstall()
        assert registry.value(names.PAGEIO_RETRIES, file=pf.name) == \
            retry.MAX_ATTEMPTS - 1
        assert registry.value(names.PAGEIO_GIVEUPS, file=pf.name) == 1


def test_retry_backoff_charged_to_simulated_clock():
    with use_registry(MetricsRegistry()):
        pf = make_file()          # FREE_DISK: accesses cost 0 ms
        pid = pf.append_page(b"payload")
        pf.stats.reset()
        injector = FaultInjector(
            plan(FaultRule("read-error", rate=1.0, times=2)), seed=0)
        injector.install(pf)
        try:
            run_with_retry(pf.read_page, pf, pid)
        finally:
            injector.uninstall()
        # Two retries: the base backoff, then it multiplied once — 4 ms +
        # 8 ms at the values every report was made with — and nothing
        # else on FREE_DISK.
        assert pf.stats.simulated_ms == pytest.approx(
            retry.BASE_BACKOFF_MS * (1 + retry.BACKOFF_MULTIPLIER))
        assert (retry.MAX_ATTEMPTS, retry.BASE_BACKOFF_MS,
                retry.BACKOFF_MULTIPLIER) == (3, 4.0, 2.0)


def test_write_run_retries_each_page_never_the_run():
    """Regression guard for the facade contract: a faulted run is
    written and retried page by page, so a page that fails every attempt
    leaves the pages before it written once, allocates nothing and
    writes nothing after it."""
    with use_registry(MetricsRegistry()) as registry:
        pf = make_file()
        pf.allocate_many(4)
        injector = FaultInjector(
            plan(FaultRule("fail-after", after_ops=2)), seed=0)
        injector.install(pf)
        try:
            with pytest.raises(TransientIOError):
                pageio.write_run(pf, 0, [b"p%d" % i for i in range(4)],
                                 component="test")
        finally:
            injector.uninstall()
        assert pf.num_pages == 4
        assert pf.stats.writes == 2 + retry.MAX_ATTEMPTS
        assert registry.value(names.PAGEIO_RETRIES, file=pf.name) \
            == retry.MAX_ATTEMPTS - 1
        assert registry.value(names.PAGEIO_WRITES, component="test") == 4
        assert [pf.read_page(i)[:2] for i in range(4)] == [
            b"p0", b"p1", b"\0\0", b"\0\0"]


# -- integrity rung ----------------------------------------------------------


def test_bit_flip_detected_and_not_retried():
    with use_registry(MetricsRegistry()) as registry:
        pf = make_file()
        pid = pf.append_page(b"payload")
        injector = FaultInjector(
            plan(FaultRule("bit-flip", rate=1.0, times=1)), seed=0)
        injector.install(pf)
        try:
            with pytest.raises(PageCorruptError):
                pageio.read_page(pf, pid, component="test")
        finally:
            injector.uninstall()
        assert registry.value(names.PAGES_CORRUPT, file=pf.name) == 1
        # Corruption is permanent: no retry may have fired.
        assert registry.value(names.PAGEIO_RETRIES, file=pf.name) == 0


def test_torn_write_surfaces_on_next_read():
    with use_registry(MetricsRegistry()):
        pf = make_file()
        pid = pf.allocate()
        injector = FaultInjector(
            plan(FaultRule("torn-write", rate=1.0, times=1)), seed=0)
        injector.install(pf)
        try:
            # The write "succeeds" (classic power-loss shape) ...
            pf.write_page(pid, bytes(range(64)))
            # ... and the damage is only visible on the next read.
            with pytest.raises(PageCorruptError):
                pf.read_page(pid)
        finally:
            injector.uninstall()


def test_latency_rule_charges_only_the_clock():
    with use_registry(MetricsRegistry()):
        pf = make_file()
        pid = pf.append_page(b"payload")
        pf.stats.reset()
        injector = FaultInjector(
            plan(FaultRule("latency", rate=1.0, latency_ms=5.0)), seed=0)
        injector.install(pf)
        try:
            assert pf.read_page(pid).startswith(b"payload")
            assert pf.read_page(pid).startswith(b"payload")
        finally:
            injector.uninstall()
        assert pf.stats.simulated_ms == pytest.approx(10.0)
        assert injector.injected == {"latency": 2}


def test_fail_after_models_device_dropout():
    with use_registry(MetricsRegistry()):
        pf = make_file()
        pids = [pf.append_page(b"p%d" % i) for i in range(4)]
        injector = FaultInjector(
            plan(FaultRule("fail-after", after_ops=2)), seed=0)
        injector.install(pf)
        try:
            pf.read_page(pids[0])
            pf.read_page(pids[1])
            with pytest.raises(TransientIOError):
                pf.read_page(pids[2])
            # The device stays gone: every later access fails too.
            with pytest.raises(TransientIOError):
                pf.read_page(pids[3])
        finally:
            injector.uninstall()


def test_external_disk_corruption_detected(tmp_path):
    """The CRC trailer catches corruption nobody injected: flip a byte
    in the file on disk and the next read raises."""
    path = os.path.join(tmp_path, "vpages.bin")
    with use_registry(MetricsRegistry()):
        with PagedFile("vpages", page_size=64, path=path) as pf:
            pid = pf.append_page(b"payload")
        with open(path, "r+b") as fh:
            fh.seek(3)
            fh.write(b"\xff")
        with PagedFile("vpages", page_size=64, path=path) as pf:
            with pytest.raises(PageCorruptError):
                pf.read_page(pid)


def test_external_trailer_corruption_detected(tmp_path):
    path = os.path.join(tmp_path, "vpages.bin")
    with use_registry(MetricsRegistry()):
        with PagedFile("vpages", page_size=64, path=path) as pf:
            pid = pf.append_page(b"payload")
        with open(path, "r+b") as fh:
            fh.seek(64)                  # first trailer byte of page 0
            fh.write(b"\x00\x00\x00\x00\x00\x00\x00\x01")
        with PagedFile("vpages", page_size=64, path=path) as pf:
            with pytest.raises(PageCorruptError):
                pf.read_page(pid)


# -- determinism and wiring --------------------------------------------------


def _fault_trace(seed):
    """Outcome sequence of a fixed workload under a fixed plan."""
    with use_registry(MetricsRegistry()):
        pf = make_file()
        pids = [pf.append_page(b"page %d" % i) for i in range(24)]
        injector = FaultInjector(
            plan(FaultRule("read-error", rate=0.3),
                 FaultRule("bit-flip", rate=0.2)), seed=seed)
        injector.install(pf)
        trace = []
        try:
            for pid in pids:
                try:
                    pf.read_page(pid)
                    trace.append("ok")
                except TransientIOError:
                    trace.append("transient")
                except PageCorruptError:
                    trace.append("corrupt")
        finally:
            injector.uninstall()
        return trace, dict(injector.injected)


def test_same_seed_same_fault_sequence():
    assert _fault_trace(7) == _fault_trace(7)
    assert _fault_trace(1234) == _fault_trace(1234)


def test_match_selects_files_by_name_substring():
    with use_registry(MetricsRegistry()):
        tree = make_file(name="tree")
        vpages = make_file(name="vpages-dfs")
        tree_pid = tree.append_page(b"node")
        vpage_pid = vpages.append_page(b"vpage")
        injector = FaultInjector(
            plan(FaultRule("read-error", match="vpages", rate=1.0)), seed=0)
        injector.install(tree, vpages)
        try:
            assert tree.read_page(tree_pid).startswith(b"node")
            with pytest.raises(TransientIOError):
                vpages.read_page(vpage_pid)
        finally:
            injector.uninstall()


def test_second_injector_rejected_and_uninstall_restores():
    with use_registry(MetricsRegistry()):
        pf = make_file()
        pid = pf.append_page(b"payload")
        first = FaultInjector(
            plan(FaultRule("read-error", rate=1.0)), seed=0)
        second = FaultInjector(
            plan(FaultRule("read-error", rate=1.0)), seed=1)
        first.install(pf)
        try:
            first.install(pf)            # same injector: idempotent
            with pytest.raises(StorageError):
                second.install(pf)
        finally:
            first.uninstall()
        assert pf.faults is None
        assert pf.read_page(pid).startswith(b"payload")


# -- validation and named plans ----------------------------------------------


def test_invalid_rules_rejected():
    with pytest.raises(StorageError):
        FaultRule("gamma-ray")
    with pytest.raises(StorageError):
        FaultRule("read-error", rate=1.5)
    with pytest.raises(StorageError):
        FaultRule("fail-after", after_ops=-1)
    with pytest.raises(StorageError):
        FaultRule("latency", latency_ms=-2.0)
    with pytest.raises(StorageError):
        FaultRule("read-error", times=0)
    with pytest.raises(StorageError):
        FaultPlan("empty", ())


def test_named_plans_lookup():
    assert "aggressive" in plan_names()
    assert plan_names() == sorted(plan_names())
    for name in plan_names():
        assert named_plan(name).name == name
    with pytest.raises(StorageError):
        named_plan("no-such-plan")


def test_happy_path_registers_no_resilience_series():
    """With no injector, a normal read/write round-trip must not create
    any retry/corruption series — the fault-free metric dump stays
    byte-identical to one from before the resilience layer existed."""
    with use_registry(MetricsRegistry()) as registry:
        pf = make_file()
        pid = pf.append_page(b"payload")
        pageio.read_page(pf, pid, component="test")
        for metric in (names.PAGEIO_RETRIES, names.PAGEIO_GIVEUPS,
                       names.PAGES_CORRUPT):
            assert registry.value(metric, file=pf.name) == 0.0
            assert not registry.series(metric)


# -- deterministic crash points (PR 8) ---------------------------------------


def test_crash_after_ops_counts_boundaries_and_raises():
    from repro.errors import SimulatedCrash

    with use_registry(MetricsRegistry()) as registry:
        pf = make_file()
        pid = pf.append_page(b"payload")
        injector = FaultInjector(seed=0)          # plan-less: crash-only
        injector.install(pf)
        injector.crash_after_ops(3)
        pf.read_page(pid)
        pf.read_page(pid)
        with pytest.raises(SimulatedCrash, match="boundary 3"):
            pf.read_page(pid)
        assert injector.crash_trace == [f"read:{pf.name}"] * 3
        assert injector.injected == {"crash": 1}
        assert registry.value(names.CRASHES_INJECTED) == 1
        injector.uninstall()


def test_crash_point_is_inert_until_armed():
    with use_registry(MetricsRegistry()) as registry:
        pf = make_file()
        pid = pf.append_page(b"payload")
        injector = FaultInjector(seed=0)
        injector.install(pf)
        for _ in range(10):
            pf.read_page(pid)
        assert injector.crash_trace == []
        assert injector.total_injected() == 0
        assert not registry.series(names.CRASHES_INJECTED)
        injector.crash_after_ops(5)
        injector.crash_after_ops(None)            # disarm again
        pf.read_page(pid)
        assert injector.crash_trace == []
        injector.uninstall()


def test_crash_after_ops_validation():
    injector = FaultInjector(seed=0)
    with pytest.raises(StorageError):
        injector.crash_after_ops(0)
    with pytest.raises(StorageError):
        injector.crash_after_ops(-2)


def test_simulated_crash_is_not_retried():
    """A crash is terminal by design: the retry layer must let it
    propagate instead of burning attempts against a dead process."""
    from repro.errors import SimulatedCrash

    with use_registry(MetricsRegistry()) as registry:
        pf = make_file()
        pid = pf.append_page(b"payload")
        injector = FaultInjector(seed=0)
        injector.install(pf)
        injector.crash_after_ops(1)
        with pytest.raises(SimulatedCrash):
            pageio.read_page(pf, pid, component="test")
        assert not isinstance(SimulatedCrash("x"), TransientIOError)
        assert registry.value(names.PAGEIO_RETRIES, file=pf.name) == 0
        injector.uninstall()


def test_crash_countdown_consumes_no_rng():
    """Arming the countdown must not perturb the plan's fault sequence:
    two injectors with the same plan and seed, one armed far beyond the
    workload, inject identical faults."""
    def run(arm):
        with use_registry(MetricsRegistry()):
            pf = make_file()
            pid = pf.append_page(b"payload")
            injector = FaultInjector(
                plan(FaultRule("read-error", rate=0.5)), seed=42)
            if arm:
                injector.crash_after_ops(10 ** 9)
            injector.install(pf)
            hits = []
            for _ in range(20):
                try:
                    pf.read_page(pid)
                    hits.append(0)
                except TransientIOError:
                    hits.append(1)
            injector.uninstall()
            return hits

    assert run(arm=False) == run(arm=True)
