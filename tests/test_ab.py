"""The A/B judge's verdict rule (scripts/ab.py) on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [100.0, 98.0, 102.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5]  # median 100, IQR 1.75


def shifted(runs, by):
    return [x + by for x in runs]


@pytest.mark.parametrize("better, sign", [("higher", 1.0), ("lower", -1.0)])
def test_a_clear_gain_in_ten_pairs(better, sign):
    assert ab.verdict(BASE, shifted(BASE, sign * 5.0), better, 0.2) == "gain"
    # the same runs read the other way are no gain, and within a 20% bound
    assert ab.verdict(BASE, shifted(BASE, -sign * 5.0), better, 0.2) == "within bound"


def test_nine_wins_in_ten_are_enough_and_eight_are_not():
    head = shifted(BASE, 5.0)
    nine, eight = head.copy(), head.copy()
    nine[0] = BASE[0] - 1.0
    eight[0], eight[1] = BASE[0] - 1.0, BASE[1] - 1.0
    assert ab.wins(BASE, nine, "higher") == 9 and ab.verdict(BASE, nine, "higher", 0.2) == "gain"
    assert ab.wins(BASE, eight, "higher") == 8 and ab.verdict(BASE, eight, "higher", 0.2) == "within bound"


def test_no_gain_from_fewer_than_ten_pairs():
    assert ab.verdict(BASE[:9], shifted(BASE[:9], 5.0), "higher", 0.2) == "within bound"


def test_no_gain_within_the_base_interquartile_range():
    # every pair won, but the medians differ by 1 against an IQR of 1.75
    head = shifted(BASE, 1.0)
    assert ab.wins(BASE, head, "higher") == 10
    assert ab.spread(BASE) == 1.75
    assert ab.verdict(BASE, head, "higher", 0.2) == "within bound"


@pytest.mark.parametrize("better, sign", [("higher", -1.0), ("lower", 1.0)])
def test_a_median_worse_by_more_than_the_bound_is_a_regression(better, sign):
    assert ab.verdict(BASE, shifted(BASE, sign * 6.0), better, 0.05) == "regression"
    assert ab.verdict(BASE, shifted(BASE, sign * 4.0), better, 0.05) == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    base = [10.0, 14.0, 6.0, 12.0]  # IQR 3.5 on a median of 11
    assert ab.verdict(base, [11.0, 13.0, 7.0, 10.0], "higher", 0.25) == "unresolved"
    assert ab.verdict(base, [15.0, 15.5, 16.0, 14.5], "higher", 0.25) == "within bound"


def test_ties_count_for_neither_side():
    assert ab.wins(BASE, BASE, "higher") == 0 and ab.wins(BASE, BASE, "lower") == 0
    assert ab.verdict(BASE, list(BASE), "higher", 0.05) == "within bound"


def test_one_run_has_no_spread():
    assert ab.quartiles([3.0]) == (3.0, 3.0) and ab.spread([3.0]) == 0.0
