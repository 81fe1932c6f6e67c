"""Write-ahead journal and recovery tests (PR 8).

Bottom-up over the crash-consistency stack: the WAL's on-disk format
and framing, group commit and the written/durable split, the
deterministic power-loss model, recovery's replay/truncate/refuse
triage, and idempotence.
"""

import os
import zlib

import pytest

from repro.errors import (JournalCorruptError, SimulatedCrash,
                          StorageError)
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.storage import journal as wal
from repro.storage.disk import FREE_DISK, IOStats
from repro.storage.faults import FaultInjector, FaultPlan, FaultRule
from repro.storage.journal import WriteAheadJournal, journal_path
from repro.storage.pagedfile import PagedFile
from repro.storage.recovery import scan_journal

PAGE = 64


def page(fill):
    return bytes([fill]) * PAGE


def make_file(tmp_path, name="wal-test", **kwargs):
    return PagedFile(name, page_size=PAGE, disk=FREE_DISK, stats=IOStats(),
                     path=str(tmp_path / f"{name}.pages"), journal=True,
                     **kwargs)


def frame(payload):
    return wal.RECORD.pack(wal.RECORD_MAGIC, len(payload),
                           zlib.crc32(payload)) + payload


def image_record(page_id, data):
    return frame(wal.PAGE_IMAGE.pack(wal.KIND_PAGE_IMAGE, page_id,
                                     zlib.crc32(data)) + data)


def commit_record(seqno=1, covered=1):
    return frame(wal.COMMIT.pack(wal.KIND_COMMIT, seqno, covered))


def header():
    return wal.HEADER.pack(wal.HEADER_MAGIC, wal.FORMAT_VERSION, PAGE)


# -- journal format and framing ----------------------------------------------


def test_journal_on_disk_layout(tmp_path):
    with use_registry(MetricsRegistry()) as registry:
        path = str(tmp_path / "j.wal")
        journal = WriteAheadJournal(path, page_size=PAGE, name="j")
        journal.append_page_image(3, page(0xAB), zlib.crc32(page(0xAB)))
        journal.append_commit_marker()
        journal.sync()
        journal.close()
        raw = open(path, "rb").read()
        assert raw == (header() + image_record(3, page(0xAB))
                       + commit_record(seqno=1, covered=1))
        assert registry.value(names.JOURNAL_RECORDS, file="j") == 2
        assert registry.value(names.JOURNAL_COMMITS, file="j") == 1


def test_group_commit_one_marker_per_batch(tmp_path):
    with use_registry(MetricsRegistry()):
        journal = WriteAheadJournal(str(tmp_path / "j.wal"),
                                    page_size=PAGE, name="j")
        for pid in range(3):
            journal.append_page_image(pid, page(pid), zlib.crc32(page(pid)))
        assert journal.uncommitted_records == 3
        seqno = journal.append_commit_marker()
        assert seqno == 1
        assert journal.uncommitted_records == 0
        assert journal.append_commit_marker() == 2   # next batch
        committed, records, commits, tail = scan_journal(
            _reread(journal), path=journal.path, page_size=PAGE)
        assert records == 5 and commits == 2 and tail == 0
        assert sorted(committed) == [0, 1, 2]
        journal.close()


def _reread(journal):
    with open(journal.path, "rb") as fh:
        return fh.read()


def test_written_durable_split_and_power_loss(tmp_path):
    with use_registry(MetricsRegistry()):
        journal = WriteAheadJournal(str(tmp_path / "j.wal"),
                                    page_size=PAGE, name="j")
        durable = journal.durable_length
        assert durable == wal.HEADER.size == journal.written_length
        journal.append_page_image(0, page(1), zlib.crc32(page(1)))
        journal.append_page_image(1, page(2), zlib.crc32(page(2)))
        written = journal.written_length
        assert journal.durable_length == durable < written
        # Power loss keeps the durable prefix plus half the volatile tail.
        journal.simulate_power_loss()
        assert journal.closed
        kept = os.path.getsize(journal.path)
        assert kept == durable + (written - durable) // 2


def test_sync_advances_durable(tmp_path):
    with use_registry(MetricsRegistry()):
        journal = WriteAheadJournal(str(tmp_path / "j.wal"),
                                    page_size=PAGE, name="j")
        journal.append_page_image(0, page(7), zlib.crc32(page(7)))
        journal.sync()
        assert journal.durable_length == journal.written_length
        journal.simulate_power_loss()
        # Everything synced survives in full.
        committed, records, commits, tail = scan_journal(
            open(journal.path, "rb").read(), path=journal.path,
            page_size=PAGE)
        assert records == 1 and tail == 0


def test_journal_rejects_wrong_page_size_and_bad_header(tmp_path):
    with use_registry(MetricsRegistry()):
        path = str(tmp_path / "j.wal")
        WriteAheadJournal(path, page_size=PAGE, name="j").close()
        with pytest.raises(StorageError, match="page size"):
            WriteAheadJournal(path, page_size=PAGE * 2, name="j")
        with open(path, "r+b") as fh:
            fh.write(b"NOTAWAL!")
        with pytest.raises(StorageError, match="not a journal"):
            WriteAheadJournal(path, page_size=PAGE, name="j")
        short = str(tmp_path / "short.wal")
        with open(short, "wb") as fh:
            fh.write(b"abc")
        with pytest.raises(StorageError, match="shorter than"):
            WriteAheadJournal(short, page_size=PAGE, name="j")
        with pytest.raises(StorageError):
            WriteAheadJournal(str(tmp_path / "x.wal"), page_size=0,
                              name="j")


def test_closed_journal_refuses_appends(tmp_path):
    with use_registry(MetricsRegistry()):
        journal = WriteAheadJournal(str(tmp_path / "j.wal"),
                                    page_size=PAGE, name="j")
        journal.close()
        journal.close()                     # idempotent
        with pytest.raises(StorageError, match="closed"):
            journal.append_page_image(0, page(0), 0)
        with pytest.raises(StorageError, match="exactly"):
            WriteAheadJournal(str(tmp_path / "k.wal"), page_size=PAGE,
                              name="k").append_page_image(0, b"short", 0)


# -- scan triage: replay, truncate, refuse -----------------------------------


def test_scan_truncates_torn_tail():
    raw = header() + image_record(0, page(1)) + commit_record() \
        + image_record(1, page(2))[:20]
    committed, records, commits, tail = scan_journal(
        raw, path="j.wal", page_size=PAGE)
    assert sorted(committed) == [0] and commits == 1
    assert tail == 20


def test_scan_refuses_interior_corruption():
    intact = image_record(0, page(1))
    rotted = bytearray(intact)
    rotted[wal.RECORD.size + 10] ^= 0x40     # flip a payload bit
    raw = header() + bytes(rotted) + commit_record()
    with pytest.raises(JournalCorruptError, match="intact records after"):
        scan_journal(raw, path="j.wal", page_size=PAGE)


def test_scan_rejects_malformed_records():
    bad_kind = frame(bytes([9]) + bytes(8))
    with pytest.raises(JournalCorruptError, match="unknown"):
        scan_journal(header() + bad_kind, path="j", page_size=PAGE)
    short_image = frame(wal.PAGE_IMAGE.pack(wal.KIND_PAGE_IMAGE, 0, 0))
    with pytest.raises(JournalCorruptError, match="page-image"):
        scan_journal(header() + short_image, path="j", page_size=PAGE)
    with pytest.raises(StorageError, match="shorter"):
        scan_journal(b"", path="j", page_size=PAGE)


def test_uncommitted_images_are_discarded():
    raw = header() + image_record(0, page(1)) + commit_record() \
        + image_record(1, page(2))
    committed, records, commits, tail = scan_journal(
        raw, path="j.wal", page_size=PAGE)
    assert sorted(committed) == [0]
    assert records == 3 and commits == 1 and tail == 0


# -- PagedFile integration ---------------------------------------------------


def test_overlay_serves_journaled_writes_before_checkpoint(tmp_path):
    with use_registry(MetricsRegistry()):
        pf = make_file(tmp_path)
        pf.allocate_many(2)
        pf.write_page(0, page(0x5A))
        assert pf.read_page(0) == page(0x5A)
        # The data file itself is untouched until checkpoint.
        data_path = str(tmp_path / "wal-test.pages")
        size = os.path.getsize(data_path)
        on_disk = open(data_path, "rb").read()
        assert page(0x5A) not in on_disk
        pf.commit()
        pf.checkpoint()
        assert page(0x5A) in open(data_path, "rb").read()
        assert os.path.getsize(data_path) == size
        pf.close()


def test_recovery_replays_committed_and_drops_uncommitted(tmp_path):
    with use_registry(MetricsRegistry()) as registry:
        pf = make_file(tmp_path)
        pf.allocate_many(3)
        pf.write_page(0, page(0x11))
        pf.write_page(1, page(0x22))
        pf.commit()
        pf.write_page(2, page(0x33))     # never committed
        pf.crash()
        pf2 = make_file(tmp_path)
        report = pf2.last_recovery
        assert report is not None
        assert report.commits_applied == 1
        assert report.pages_replayed == 2
        assert pf2.read_page(0) == page(0x11)
        assert pf2.read_page(1) == page(0x22)
        assert pf2.read_page(2) == bytes(PAGE)
        assert registry.value(names.RECOVERY_PAGES_REPLAYED,
                              file="wal-test") == 2
        pf2.close()


def test_recovery_of_recovered_file_is_noop(tmp_path):
    with use_registry(MetricsRegistry()):
        pf = make_file(tmp_path)
        pf.allocate()
        pf.write_page(0, page(0x77))
        pf.commit()
        pf.crash()
        pf2 = make_file(tmp_path)
        pf2.close()
        before = (open(str(tmp_path / "wal-test.pages"), "rb").read(),
                  open(journal_path(str(tmp_path / "wal-test.pages")),
                       "rb").read())
        pf3 = make_file(tmp_path)
        assert pf3.last_recovery is None       # journal already empty
        pf3.close()
        after = (open(str(tmp_path / "wal-test.pages"), "rb").read(),
                 open(journal_path(str(tmp_path / "wal-test.pages")),
                      "rb").read())
        assert after == before


def test_clean_close_checkpoints_so_reopen_skips_recovery(tmp_path):
    with use_registry(MetricsRegistry()):
        pf = make_file(tmp_path)
        pf.allocate()
        pf.write_page(0, page(0x42))
        pf.close()                          # checkpoint + reset inside
        pf2 = make_file(tmp_path)
        assert pf2.last_recovery is None
        assert pf2.read_page(0) == page(0x42)
        pf2.close()


def test_journal_bit_rot_detected_on_recovery(tmp_path):
    with use_registry(MetricsRegistry()):
        pf = make_file(tmp_path)
        injector = FaultInjector(
            FaultPlan("wal-rot", (
                FaultRule("bit-flip", match=".wal", times=1),)),
            seed=3)
        injector.install(pf)
        pf.allocate_many(2)
        pf.write_page(0, page(0x10))     # this record's bytes rot
        pf.write_page(1, page(0x20))     # intact record after it
        pf.commit()                      # durable: survives power loss
        injector.uninstall()
        pf.crash()
        with pytest.raises(JournalCorruptError, match="refusing"):
            make_file(tmp_path)


def test_crash_during_recovery_then_recover_again(tmp_path):
    with use_registry(MetricsRegistry()):
        pf = make_file(tmp_path)
        pf.allocate_many(2)
        pf.write_page(0, page(0x0A))
        pf.write_page(1, page(0x0B))
        pf.commit()
        pf.crash()
        # Kill recovery at its very first boundary...
        injector = FaultInjector(seed=0)
        injector.crash_after_ops(1)
        with pytest.raises(SimulatedCrash):
            make_file(tmp_path, faults=injector)
        assert injector.crash_trace == ["recovery-scan:wal-test"]
        # ...and the next clean open still converges.
        pf2 = make_file(tmp_path)
        assert pf2.read_page(0) == page(0x0A)
        assert pf2.read_page(1) == page(0x0B)
        assert pf2.last_recovery is not None
        pf2.close()


def test_journal_requires_disk_backing_and_journal_only_apis(tmp_path):
    with use_registry(MetricsRegistry()):
        with pytest.raises(StorageError, match="journaling requires"):
            PagedFile("mem-only", page_size=PAGE, journal=True)
        plain = PagedFile("plain", page_size=PAGE)
        with pytest.raises(StorageError, match="not a journaled"):
            plain.commit()
        with pytest.raises(StorageError, match="not a journaled"):
            plain.checkpoint()
        plain.close()


def test_commit_without_pending_writes_is_free(tmp_path):
    with use_registry(MetricsRegistry()) as registry:
        pf = make_file(tmp_path)
        pf.commit()
        pf.checkpoint()
        assert registry.value(names.JOURNAL_COMMITS, file="wal-test") == 0
        pf.close()

