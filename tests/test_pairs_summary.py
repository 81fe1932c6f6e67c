"""The alternating-pairs summary of ``benchmarks/pairs.py``.

``summarize`` is a pure function of the per-pair values, so the claim a
run log publishes can be re-derived from its table: fed ISSUE 49's 12
``walk_hot_pool`` ``setup_s`` pairs (docs/runs/ISSUE-49.md, four
decimals), it must give that log's medians, quartiles, ratio, win count
and gap against the parent's quartile distance.
"""

import importlib.util
import math
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location(
    "pairs", os.path.join(HERE, "..", "benchmarks", "pairs.py"))
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

#: docs/runs/ISSUE-49.md, "walk_hot_pool, --seconds 1, 12 pairs".
SETUP_S_PARENT = [1.1058, 1.0911, 1.0775, 1.2116, 1.2298, 1.3433, 1.0342,
                  0.9973, 1.2827, 1.2281, 1.0413, 0.9893]
SETUP_S_CHANGE = [0.9599, 0.9640, 0.8655, 0.9436, 0.8614, 0.9576, 0.8248,
                  0.8486, 0.8316, 0.7753, 0.9285, 0.9445]
OPS_PER_S_PARENT = [8003.9, 7989.9, 8421.9, 8194.2, 9489.0, 8126.8, 8111.9,
                    8256.9, 8404.7, 8088.5, 8607.5, 8079.7]
OPS_PER_S_CHANGE = [8500.3, 8352.1, 8314.4, 8208.4, 8303.5, 8939.0, 8059.4,
                    7630.2, 8474.4, 8373.9, 8293.4, 8408.0]


def test_issue_49_claim_is_rederived_from_its_pairs():
    s = pairs.summarize(SETUP_S_PARENT, SETUP_S_CHANGE, "lower")
    # Published to three decimals; the table's values are rounded to four.
    assert (s.parent_median, s.change_median) == pytest.approx(
        (1.099, 0.897), abs=6e-4)
    assert (s.parent_q1, s.parent_q3) == pytest.approx((1.036, 1.229),
                                                       abs=5e-4)
    assert (s.change_q1, s.change_q3) == pytest.approx((0.836, 0.954),
                                                       abs=5e-4)
    assert round(s.ratio, 3) == 0.817
    assert (s.wins, s.pairs) == (12, 12)
    assert (round(s.gap, 2), round(s.parent_iqr, 2)) == (0.20, 0.19)
    assert s.gap_exceeds_iqr


def test_a_higher_is_better_metric_counts_wins_the_other_way():
    s = pairs.summarize(OPS_PER_S_PARENT, OPS_PER_S_CHANGE, "higher")
    assert s.wins == sum(c > p for p, c in zip(OPS_PER_S_PARENT,
                                               OPS_PER_S_CHANGE)) == 7
    assert s.gap == s.change_median - s.parent_median
    assert not s.gap_exceeds_iqr
    flipped = pairs.summarize(OPS_PER_S_PARENT, OPS_PER_S_CHANGE, "lower")
    assert flipped.wins == 5 and flipped.gap == -s.gap


def test_single_pair_and_bad_input():
    s = pairs.summarize([2.0], [1.0], "lower")
    assert (s.parent_q1, s.parent_median, s.parent_q3) == (2.0, 2.0, 2.0)
    assert (s.ratio, s.wins, s.gap, s.parent_iqr) == (0.5, 1, 1.0, 0.0)
    assert math.isnan(pairs.summarize([0.0], [0.0], "lower").ratio)
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        pairs.summarize([1.0], [1.0], "smaller")


def test_identical_metrics_verdict_names_what_moved():
    same = {name: 1.0 for name in pairs.IDENTICAL}
    moved = dict(same, io_pages_per_op=1.5)
    assert pairs.differing([{"parent": same, "change": dict(same)}]) == []
    assert pairs.differing([{"parent": same, "change": dict(same)},
                            {"parent": same, "change": moved}]) == [
        "io_pages_per_op"]


def test_the_first_metric_is_labelled_claimed_only_when_claimed():
    metrics = {name: 1.0 for name in pairs.end_to_end()}
    side = {"exit": 0, "correct": True, "metrics": metrics}
    records = [{"pair": 0, "seed": 1, "first": "parent",
                "parent": side, "change": side}]
    for claim in (False, True):
        out = pairs.report("rev", "w", 1.0, "setup_s", records, claim)
        rows = [line for line in out["markdown"].splitlines()
                if line.startswith("| ") and "setup_s" in line]
        assert rows[0].startswith("| **`setup_s`** (claimed)"
                                  if claim else "| `setup_s` |")
        assert ("(claimed)" in out["markdown"]) is claim
        assert out["record"]["claim"] is claim
