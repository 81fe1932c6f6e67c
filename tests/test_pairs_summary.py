"""The alternating-pairs summary of ``benchmarks/pairs.py``.

``summarize`` is a pure function of the per-pair values, so the claim a
run log publishes can be re-derived from its table: fed ISSUE 49's 12
``walk_hot_pool`` ``setup_s`` pairs (docs/runs/ISSUE-49.md, four
decimals), it must give that log's medians, quartiles, ratio, win count
and gap against the parent's quartile distance.  The same for the
claims of ISSUE 47 and 48 (``point_query_cold`` ``setup_s``, lower is
better) and ISSUE 51 (``point_query_cold`` ``ops_per_s``, higher is
better), each from its log's per-pair table.
"""

import importlib.util
import math
import os
import statistics

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


#: docs/runs/ISSUE-47.md, "Claim: `point_query_cold` `setup_s`": ten
#: pairs on seeds 1–3, then three on seed 7 (three decimals).
ISSUE_47_PARENT = [2.341, 2.058, 2.441, 1.975, 1.929, 2.656, 2.632, 2.484,
                   2.761, 3.107, 2.682, 2.868, 2.832]
ISSUE_47_CHANGE = [1.772, 1.878, 1.603, 1.805, 1.364, 1.995, 1.844, 2.515,
                   1.9, 1.91, 1.687, 1.678, 1.701]
#: docs/runs/ISSUE-48.md, "`point_query_cold`, `--trace 0`": ten pairs
#: on seeds 1–3, then three on seed 7 (three decimals).
ISSUE_48_PARENT = [1.698, 1.928, 1.647, 1.724, 1.782, 1.837, 1.866, 1.704,
                   1.889, 1.688, 2.053, 1.507, 1.597]
ISSUE_48_CHANGE = [1.439, 1.413, 1.542, 1.453, 1.255, 1.242, 1.402, 1.507,
                   1.455, 1.223, 1.414, 1.238, 1.300]
#: docs/runs/ISSUE-51.md, section 1's `point_query_cold` table (one
#: decimal).
ISSUE_51_PARENT = [3778.3, 3779.5, 3752.8, 3906.5, 3781.9, 3668.7, 3810.7,
                   3678.1, 3703.1, 3948.0]
ISSUE_51_CHANGE = [4664.5, 4634.9, 4559.8, 4768.0, 4610.4, 4584.8, 4756.1,
                   4668.2, 4561.4, 4702.5]


def test_issue_47_claim_is_rederived_from_its_pairs():
    """Medians, ratio, wins and gap as published.  The log predates
    ``pairs.py`` and gave inclusive-method quartiles; under the
    exclusive method ``summarize`` uses, the parent's quartile distance
    over seeds 1–3 (0.645 s) exceeds the median gap (0.601 s)."""
    s = pairs.summarize(ISSUE_47_PARENT[:10], ISSUE_47_CHANGE[:10], "lower")
    assert (round(s.parent_median, 3), s.change_median) == (2.462, 1.861)
    assert round(s.ratio, 3) == 0.756
    assert (s.wins, s.pairs) == (9, 10)
    assert round(s.gap, 3) == 0.601
    inclusive = statistics.quantiles(ISSUE_47_PARENT[:10], n=4,
                                     method="inclusive")
    assert inclusive == pytest.approx([2.129, 2.462, 2.650], abs=6e-4)
    assert round(inclusive[2] - inclusive[0], 3) == 0.521
    # Taken before the table's values were rounded to three decimals.
    assert statistics.quantiles(ISSUE_47_CHANGE[:10], n=4,
                                method="inclusive") == pytest.approx(
        [1.781, 1.861, 1.907], abs=1e-3)
    assert round(s.parent_iqr, 3) == 0.645 and not s.gap_exceeds_iqr
    held_out = pairs.summarize(ISSUE_47_PARENT[10:], ISSUE_47_CHANGE[10:],
                               "lower")
    assert (held_out.parent_median, held_out.change_median) == (2.832,
                                                                1.687)
    assert round(held_out.ratio, 3) == 0.596 and held_out.wins == 3
    assert round(held_out.gap, 3) == 1.145 and held_out.gap_exceeds_iqr
    every = pairs.summarize(ISSUE_47_PARENT, ISSUE_47_CHANGE, "lower")
    assert (every.parent_median, every.change_median) == (2.632, 1.805)
    assert round(every.ratio, 3) == 0.686
    assert (every.wins, every.pairs) == (12, 13)
    assert round(every.gap, 3) == 0.827


def test_issue_48_claim_is_rederived_from_its_pairs():
    s = pairs.summarize(ISSUE_48_PARENT[:10], ISSUE_48_CHANGE[:10], "lower")
    assert (round(s.parent_median, 3), round(s.change_median, 3)) == (
        1.753, 1.426)
    # 1.6955 published as 1.696: rounded half up.
    assert (s.parent_q1, s.parent_q3) == pytest.approx((1.696, 1.872),
                                                       abs=6e-4)
    assert (s.change_q1, s.change_q3) == pytest.approx((1.252, 1.468),
                                                       abs=5e-4)
    assert round(s.ratio, 3) == 0.813
    assert (s.wins, s.pairs) == (10, 10)
    assert (round(s.gap, 3), round(s.parent_iqr, 3)) == (0.327, 0.176)
    assert s.gap_exceeds_iqr
    held_out = pairs.summarize(ISSUE_48_PARENT[10:], ISSUE_48_CHANGE[10:],
                               "lower")
    assert (held_out.parent_median, held_out.change_median) == (1.597, 1.3)
    assert round(held_out.ratio, 3) == 0.814 and held_out.wins == 3


def test_issue_51_claim_is_rederived_from_its_pairs():
    """Published from unrounded values; the table has one decimal."""
    s = pairs.summarize(ISSUE_51_PARENT, ISSUE_51_CHANGE, "higher")
    assert (s.parent_median, s.change_median) == pytest.approx(
        (3778.9, 4649.7), abs=0.05)
    assert (s.parent_q1, s.parent_q3) == pytest.approx((3696.8, 3834.6),
                                                       abs=0.1)
    assert (s.change_q1, s.change_q3) == pytest.approx((4578.9, 4715.9),
                                                       abs=0.1)
    assert round(s.ratio, 3) == 1.230
    assert (s.wins, s.pairs) == (10, 10)
    assert (s.gap, s.parent_iqr) == pytest.approx((870.7634, 137.8044),
                                                  abs=0.1)
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
