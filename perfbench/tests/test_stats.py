"""The percentile helper's sample-count rule."""

import pytest

from perfbench.stats import MIN_BEYOND, median, quartile_spread, tail_percentile


def test_p90_needs_ten_samples_above_it():
    assert tail_percentile(list(range(100)), 0.9) == 89
    assert tail_percentile(list(range(99)), 0.9) is None
    assert tail_percentile(list(range(1000)), 0.99) == 989
    assert tail_percentile(list(range(999)), 0.99) is None


@pytest.mark.parametrize("n", [10, 40, 99, 100, 101, 250])
def test_the_rule_holds_for_every_size(n):
    value = tail_percentile(list(range(n)), 0.9)
    if value is None:
        assert n - 0.9 * n < MIN_BEYOND + 1
    else:
        assert sum(1 for v in range(n) if v > value) >= MIN_BEYOND


def test_order_does_not_matter():
    assert tail_percentile(list(reversed(range(200))), 0.9) == 179


def test_median_and_spread():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) > 0.0
    with pytest.raises(ValueError):
        tail_percentile([1.0], 1.0)
