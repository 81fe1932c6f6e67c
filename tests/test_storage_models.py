"""Model-based property tests for the storage layer.

Each test drives the real component with a random operation sequence
while maintaining a trivially-correct reference model (a dict), then
checks they agree.  This catches state-machine bugs that single-shot
unit tests miss (eviction bookkeeping, allocation ordering).
"""

from hypothesis import given, settings, strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile


def make_file(page_size=64):
    return PagedFile("model", page_size=page_size, disk=DiskModel(),
                     stats=IOStats())


# Operation encodings for the paged-file machine:
#   ("alloc",), ("write", slot, payload_byte), ("read", slot)
paged_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc")),
        st.tuples(st.just("write"), st.integers(0, 30),
                  st.integers(0, 255)),
        st.tuples(st.just("read"), st.integers(0, 30)),
    ),
    min_size=1, max_size=60)


@given(paged_ops)
@settings(max_examples=60, deadline=None)
def test_paged_file_matches_dict_model(ops):
    pfile = make_file()
    model = {}
    for op in ops:
        if op[0] == "alloc":
            pid = pfile.allocate()
            model[pid] = bytes(pfile.page_size)
        elif op[0] == "write":
            _kind, slot, value = op
            if not model:
                continue
            pid = sorted(model)[slot % len(model)]
            payload = bytes([value]) * 8
            pfile.write_page(pid, payload)
            model[pid] = payload + bytes(pfile.page_size - len(payload))
        else:
            _kind, slot = op
            if not model:
                continue
            pid = sorted(model)[slot % len(model)]
            assert pfile.read_page(pid) == model[pid]
    assert pfile.num_pages == len(model)


# Buffer-pool machine: ("get", slot), ("clear",)
pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.integers(0, 9)),
        st.tuples(st.just("get"), st.integers(0, 9)),
        st.tuples(st.just("clear")),
    ),
    min_size=1, max_size=80)


@given(pool_ops, st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_buffer_pool_matches_dict_model(ops, capacity):
    pfile = make_file()
    for i in range(10):
        pfile.write_page(pfile.allocate(), bytes([i]) * 8)
    pool = BufferPool(capacity)
    # The model: authoritative contents per page (what a reader must
    # observe through the pool, regardless of caching).
    model = {i: pfile.read_page(i) for i in range(10)}
    pfile.stats.reset()
    gets = 0
    for op in ops:
        if op[0] == "get":
            _kind, slot = op
            resident = pool.contains(pfile, slot)
            hits = pool.hits
            assert pool.get(pfile, slot) == model[slot]
            assert pool.hits - hits == int(resident)
            gets += 1
        else:
            pool.clear()
            assert pool.resident_pages == 0
        # One counted hit or miss per get, one file read per miss.
        assert pool.hits + pool.misses == gets
        assert pfile.stats.reads == pool.misses
        assert pool.resident_pages <= capacity
    for pid, content in model.items():
        assert pool.get(pfile, pid) == content
    assert pool.resident_pages <= capacity


@given(st.lists(st.integers(0, 9), min_size=1, max_size=50),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_buffer_pool_capacity_never_exceeded(accesses, capacity):
    pfile = make_file()
    for i in range(10):
        pfile.write_page(pfile.allocate(), bytes([i]))
    pool = BufferPool(capacity)
    for page_id in accesses:
        pool.get(pfile, page_id)
        assert pool.resident_pages <= capacity
    # Hits + misses account for every access.
    assert pool.hits + pool.misses == len(accesses)


