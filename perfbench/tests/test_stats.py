import pytest

from stats import covered, median, tail, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (99, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_reports_the_nearest_rank_value():
    values = [float(v) for v in range(1000, 0, -1)]
    assert tail(values) == (99.0, 990.0)
    assert tail([1.0] * 5) == (None, None)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert median([]) == 0.0


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 6), (2, 8)], 0, 10) == 7
    assert covered([(1, 2), (3, 4)], 0, 10) == 2
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0
