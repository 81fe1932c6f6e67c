"""``ResidentModels`` against a list-based reference model.

VISUAL's delta search, REVIEW's complement search and the LoD-R-tree's
are one mechanism — hold ``key -> (fraction, bytes)``, skip what is held
at sufficient detail, fetch and charge the rest — so it is checked once,
against a model that copies nothing cleverly: a plain list, linear
scans.  Random ``want`` / ``drop`` / ``keep_only`` / ``clear`` sequences
must give the same fetched-or-skipped verdict, the same iteration order
and the same byte total, step by step, with one ``fetch_prefix`` per
fetch and none per skip.

The last test pins the mechanism to its one place in the tree.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.delta import ResidentModels

KEYS = st.integers(min_value=0, max_value=7)
OPS = st.lists(st.one_of(
    st.tuples(st.just("want"), KEYS,
              st.sampled_from([0.0, 0.25, 0.5, 1.0]),
              st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("drop"), KEYS),
    st.tuples(st.just("keep_only"), st.frozensets(KEYS)),
    st.tuples(st.just("clear"))), max_size=60)


class ListModel:
    """What ``ResidentModels`` holds: ``(key, fraction, bytes)`` entries,
    least recently wanted first."""

    def __init__(self):
        self.held = []

    def want(self, key, fraction, nbytes):
        old = next((e for e in self.held if e[0] == key), None)
        fetched = old is None or old[1] < fraction
        if old is not None:
            self.held.remove(old)
        self.held.append((key, fraction, nbytes) if fetched else old)
        return fetched

    def keep_only(self, keys):
        self.held = [e for e in self.held if e[0] in keys]


class RecordingStore:
    def __init__(self):
        self.calls = []

    def fetch_prefix(self, blob_id, nbytes):
        self.calls.append((blob_id, nbytes))


@pytest.mark.parametrize("fetching", [True, False])
@given(ops=OPS)
@settings(max_examples=200, deadline=None)
def test_resident_models_match_the_list_model(fetching, ops):
    store = RecordingStore() if fetching else None
    real, model = ResidentModels(store), ListModel()
    expected_calls, fetches, skipped = [], 0, 0
    for op, *args in ops:
        if op == "want":
            key, fraction, nbytes = args
            fetched = model.want(key, fraction, nbytes)
            assert real.want(key, key + 100, fraction, nbytes) == fetched
            fetches += fetched
            skipped += not fetched
            if fetched:
                expected_calls.append((key + 100, nbytes))
        elif op == "drop":
            if args[0] not in real:
                continue
            real.drop(args[0])
            model.keep_only({e[0] for e in model.held} - {args[0]})
        elif op == "keep_only":
            real.keep_only(args[0])
            model.keep_only(args[0])
        else:
            real.clear()
            model.keep_only(())
        assert [(k, *real[k]) for k in real] == model.held
        assert len(real) == len(model.held)
        assert real.bytes == sum(e[2] for e in model.held)
        assert (real.fetches, real.skipped) == (fetches, skipped)
        if store is not None:
            assert store.calls == expected_calls


def test_a_failed_fetch_leaves_the_set_as_it_was():
    class FailingStore:
        def fetch_prefix(self, blob_id, nbytes):
            raise OSError("unreadable")

    real = ResidentModels(RecordingStore())
    real.want(1, 101, 0.5, 40)
    real._store = FailingStore()
    with pytest.raises(OSError):
        real.want(1, 101, 1.0, 80)
    assert [(k, *real[k]) for k in real] == [(1, 0.5, 40)]
    assert (real.bytes, real.fetches) == (40, 1)


def test_walkthrough_models_are_fetched_in_one_place():
    """Outside the storage layer and the cold point-query paths, one
    function in ``src/repro`` calls ``fetch_prefix``."""
    root = Path(repro.__file__).parent
    cold = {"core/search.py", "baselines/naive.py"}
    sites = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name.startswith("storage/") or name in cold:
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sites += [(name, func.name) for node in ast.walk(func)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "fetch_prefix"]
    assert sites == [("core/delta.py", "want")]
