"""``tests/ab_pairs.py``'s summary of alternating pairs, on canned records."""

import pytest

import ab_pairs

METRICS = [("run_s_p50", "lower"), ("runs_per_s", "higher")]


def record(p50, rate):
    return {"run_s_p50": p50, "runs_per_s": rate}


def test_summary_gives_medians_iqrs_and_wins_by_direction():
    pairs = [
        (record(0.030, 33.0), record(0.029, 34.0)),
        (record(0.031, 32.0), record(0.030, 33.0)),
        (record(0.029, 34.0), record(0.029, 35.0)),  # a tie on run_s_p50
        (record(0.028, 35.0), record(0.030, 33.0)),
        (record(0.032, 31.0), record(0.028, 36.0)),
    ]
    s = ab_pairs.summarise(pairs, METRICS)
    p50, rate = s["run_s_p50"], s["runs_per_s"]
    # before 0.028 0.029 0.030 0.031 0.032: quartiles at 0.029 and 0.031
    assert p50["before_median"] == pytest.approx(0.030)
    assert p50["before_iqr"] == pytest.approx(0.002)
    # after 0.028 0.029 0.029 0.030 0.030
    assert p50["after_median"] == pytest.approx(0.029)
    assert p50["after_iqr"] == pytest.approx(0.001)
    # lower wins: after in pairs 0, 1 and 4, before in pair 3, pair 2 ties
    assert (p50["before_ahead"], p50["after_ahead"]) == (1, 3)
    # higher wins: after in pairs 0, 1, 2 and 4, before in pair 3
    assert (rate["before_ahead"], rate["after_ahead"]) == (1, 4)
    assert rate["after_median"] == pytest.approx(34.0)
    assert rate["after_iqr"] == pytest.approx(2.0)


def test_iqr_is_numpys_linear_interpolation():
    # numpy's default percentiles of 1..4 are 1.75 and 3.25
    assert ab_pairs.iqr([4.0, 1.0, 3.0, 2.0]) == pytest.approx(1.5)


def test_the_metrics_are_the_benchmarks_end_to_end_ones():
    names = dict(ab_pairs.end_to_end_metrics())
    assert names["run_s_p50"] == "lower" and names["runs_per_s"] == "higher"
    assert "setup_s" in names and "peak_rss_mb" in names
