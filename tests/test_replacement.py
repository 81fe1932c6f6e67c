"""The pool's 2Q replacement order.

Three layers: the policy object alone (ordering contracts), the pool
that owns one (scan resistance), and ``run_serve`` end to end (the
ledgers balance under pressure).
"""

import json

import pytest

from repro.errors import BufferPoolError
from repro.serving import run_serve
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile
from repro.storage.replacement import TwoQPolicy


@pytest.fixture()
def pfile():
    pf = PagedFile("repl", page_size=64, disk=DiskModel(), stats=IOStats())
    for i in range(24):
        pf.append_page(bytes([i]) * 8)
    pf.stats.reset()
    return pf


# -- policy object -----------------------------------------------------------


def test_twoq_parameter_validation():
    with pytest.raises(BufferPoolError):
        TwoQPolicy(0)
    # The queue fractions are constants, not settings.
    with pytest.raises(TypeError):
        TwoQPolicy(4, kin_fraction=0.5)
    assert (TwoQPolicy(8).kin_pages, TwoQPolicy(8).kout_pages) == (2, 4)


def test_twoq_first_touch_stays_in_fifo():
    policy = TwoQPolicy(4)              # kin=1, kout=2
    policy.on_insert((0, 0))
    policy.on_insert((0, 1))
    # Accessing a FIFO resident must NOT reorder it: a correlated
    # burst right after first read is not evidence of reuse.
    policy.on_access((0, 0))
    assert list(policy.victims())[0] == (0, 0)


def test_twoq_ghost_promotion():
    policy = TwoQPolicy(4)
    policy.on_insert((0, 0))
    policy.on_evict((0, 0))             # falls out of the FIFO -> ghost
    policy.on_insert((0, 0))            # re-read: proven re-reference
    assert policy.stats() == {"ghost_hits": 1, "promotions": 1}
    # Promoted pages live in Am; with the FIFO empty the victim scan
    # still reaches them (every resident key must be yielded).
    assert (0, 0) in list(policy.victims())


def test_twoq_evict_untracked_key_is_typed_error():
    policy = TwoQPolicy(4)
    with pytest.raises(BufferPoolError):
        policy.on_evict((9, 9))


# -- pool ----------------------------------------------------------------------


def scan(pool, pfile, pages):
    for page_id in pages:
        pool.get(pfile, page_id)


def test_twoq_scan_resistance(pfile):
    """A cold scan churns the FIFO but cannot flush the proven-hot page."""
    pool = BufferPool(capacity=4)
    scan(pool, pfile, (0, 1, 2, 3, 4))   # page 0 falls to the ghost list
    pool.get(pfile, 0)                   # re-read -> promoted to Am
    scan(pool, pfile, range(10, 20))     # a 10-page cold scan
    assert pool.contains(pfile, 0)       # the hot page survived
    assert not pool.contains(pfile, 10)  # early scan pages did not
    assert pool.policy.stats()["ghost_hits"] >= 1


# -- run_serve end to end ----------------------------------------------------


def test_serve_under_pressure_balances_and_reports_no_prefetch():
    """The prefetcher is gone (EXPERIMENTS.md "Verdict on the pool
    prefetcher"): nothing in a report speaks of it, and sessions alone
    add up to the environment's ledgers."""
    report = run_serve(sessions=6, seed=7, frames=12, pool_pages=28)
    assert report["outcome"]["completed"] is True
    assert report["pool"]["evictions"] > 0
    assert "prefetch" not in json.dumps(report)      # no key, any depth
    rec = report["reconciliation"]
    assert rec["light_ios_balanced"] is True
    assert rec["heavy_ios_balanced"] is True
    assert rec["pool_balanced"] is True
