"""The A/B driver's statistics on fixed numbers; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def test_spread_uses_inclusive_quartiles():
    assert ab_bench.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert ab_bench.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_a_faster_change_wins_beyond_the_parents_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # median 12, IQR 2
    change = [8.0, 9.0, 9.5, 10.0, 14.0]  # median 9.5: 2.5 better
    v = ab_bench.compare(parent, change, "lower")
    assert v["parent"]["median"] == 12.0 and v["change"]["median"] == 9.5
    assert v["change_pct"] == pytest.approx(-100 * 2.5 / 12)
    assert v["pair_ratio_median"] == pytest.approx(0.8)  # 8/10, the middle ratio
    assert (v["change_wins"], v["ties"]) == (4, 1)
    assert v["beyond_parent_iqr"] is True
    assert v["parent_runs"] == parent and v["change_runs"] == change
    # the same numbers read as a rate, where higher is better
    rate = ab_bench.compare(parent, change, "higher")
    assert (rate["change_wins"], rate["ties"], rate["beyond_parent_iqr"]) == (0, 1, False)


def test_a_gain_within_the_parents_iqr_is_no_verdict():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # IQR 2
    change = [x - 2.0 for x in parent]  # wins every pair, by exactly the IQR
    v = ab_bench.compare(parent, change, "lower")
    assert v["change_wins"] == 5 and v["beyond_parent_iqr"] is False


def test_compare_needs_paired_runs():
    with pytest.raises(ValueError):
        ab_bench.compare([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        ab_bench.compare([], [], "lower")


def test_the_noise_floor_counts_spurious_verdicts():
    flat = ab_bench.compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "lower")
    spurious = ab_bench.compare([1.0, 1.1, 1.2], [2.0, 2.1, 2.2], "higher")
    floor = ab_bench.noise_floor({
        "a": {"end_to_end": {"wall_s": flat, "packets_per_s": spurious}},
        "b": {"end_to_end": {"wall_s": flat, "packets_per_s": flat}},
    })
    assert floor == {"beyond_parent_iqr": {"wall_s": "0/2", "packets_per_s": "1/2"},
                     "share": 0.25}
