"""The compare command's verdicts."""

from perfbench import compare


def test_improved_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    change = [0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 1.05]
    assert compare.verdict(parent, change, "lower", 0.1) == "improved"
    # Eight wins of ten is not enough.
    change[0] = 1.05
    assert compare.verdict(parent, change, "lower", 0.1) == "unchanged"


def test_worse_means_past_the_bound():
    parent = [1.0] * 10
    assert compare.verdict(parent, [1.2] * 10, "lower", 0.1) == "worse"
    assert compare.verdict(parent, [1.05] * 10, "lower", 0.1) == "unchanged"
    assert compare.verdict(parent, [0.8] * 10, "higher", 0.1) == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    change = [p * 1.02 for p in parent]
    assert compare.verdict(parent, change, "lower", 0.1) == "unresolved"


def test_report_pairs_records_and_prints_failed_shares():
    def rec(value, failed):
        return {"workload": "w", "trace": 0, "attempted": 100, "failed": failed,
                "metrics": {"query_p50_s": value}}

    parent = [rec(1.0, 1) for _ in range(10)] + [{"workload": "w", "trace": 1}]
    change = [rec(0.5, 1) for _ in range(10)]
    lines = compare.report(parent, change)
    assert any("query_p50_s" in line and "improved" in line for line in lines)
    assert any("failed share, parent: 10/1000" in line for line in lines)
