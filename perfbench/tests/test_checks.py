"""The delivery checker flags duplicate, missing and causally early deliveries."""

from perfbench.checks import check_deliveries, percentile

# p sends p1, then q (having delivered p1) sends q1; r only listens.
P1 = (("p", 1), {"p": 1})
Q1 = (("q", 1), {"p": 1, "q": 1})
P2 = (("p", 2), {"p": 2, "q": 1})
EXPECTED = [("p", 1), ("q", 1), ("p", 2)]


def good_logs():
    return {"p": [P1, Q1, P2], "q": [P1, Q1, P2], "r": [P1, Q1, P2]}


def test_clean_logs_pass():
    verdict = check_deliveries(EXPECTED, good_logs())
    assert verdict.attempted == 9
    assert verdict.failed == 0
    assert verdict.problems == []


def test_duplicate_delivery_is_flagged():
    logs = good_logs()
    logs["r"] = [P1, Q1, Q1, P2]
    verdict = check_deliveries(EXPECTED, logs)
    assert verdict.duplicates == 1
    assert verdict.failed == 1
    assert "r:" in verdict.problems[0]


def test_missing_delivery_is_flagged():
    logs = good_logs()
    logs["q"] = [P1, Q1]
    verdict = check_deliveries(EXPECTED, logs)
    assert verdict.missing == 1
    assert verdict.failed == 1


def test_causally_early_delivery_is_flagged():
    # r delivers q1 before p1, which q had delivered before sending q1.
    logs = good_logs()
    logs["r"] = [Q1, P1, P2]
    verdict = check_deliveries(EXPECTED, logs)
    assert verdict.out_of_order == 1
    assert verdict.failed == 1


def test_fifo_gap_is_flagged():
    # p2 before p1 breaks the sender's own order.
    logs = good_logs()
    logs["r"] = [P2, P1, Q1]
    verdict = check_deliveries(EXPECTED, logs)
    assert verdict.out_of_order >= 1


def test_unexpected_delivery_is_flagged():
    logs = good_logs()
    logs["p"] = [P1, Q1, P2, (("z", 1), {"z": 1})]
    verdict = check_deliveries(EXPECTED, logs)
    assert verdict.unexpected == 1


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([], 99) == 0.0
