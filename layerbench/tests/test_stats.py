"""The benchmark's own arithmetic: self time, the tail rule, ratio bases."""
import numpy as np
import pytest

import hostspeed
import stats
from run import loop_summary


def test_self_time_counts_overlapping_children_once():
    spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 4.0), (3, 1, 3.0, 6.0), (4, 1, 8.0, 9.0)]
    own = stats.self_times(spans, {})
    # children cover [1, 6] and [8, 9]: 6 of the parent's 10 seconds
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(3.0)


def test_self_time_clips_children_and_subtracts_primitives():
    spans = [(1, None, 0.0, 10.0), (2, 1, -1.0, 2.0), (3, 1, 9.0, 12.0), (4, 1, 1.5, 2.5)]
    own = stats.self_times(spans, {1: 0.5})
    # covered: [0, 2.5] and [9, 10] = 3.5; primitives directly under span 1: 0.5
    assert own[1] == pytest.approx(10.0 - 3.5 - 0.5)


def test_self_time_of_nested_spans_adds_up_to_the_root():
    spans = [(1, None, 0.0, 10.0), (2, 1, 2.0, 8.0), (3, 2, 3.0, 5.0)]
    own = stats.self_times(spans, {3: 1.0})
    assert own == pytest.approx({1: 4.0, 2: 4.0, 3: 1.0})
    assert sum(own.values()) + 1.0 == pytest.approx(10.0)


@pytest.mark.parametrize("n", [1, 2, 9, 20, 21, 40, 41, 99, 100, 101, 199, 200, 901, 902, 1000, 9991])
def test_samples_beyond_matches_a_count(n):
    for q in (*stats.TAIL_LADDER, 0.5):
        pos = q * (n - 1)
        assert stats.samples_beyond(n, q) == sum(1 for k in range(n) if k > pos)


@pytest.mark.parametrize(
    "n, q",
    [(5, 0.5), (20, 0.5), (21, 0.5), (36, 0.5), (38, 0.75), (91, 0.75), (100, 0.9),
     (101, 0.9), (201, 0.95), (1001, 0.99), (10001, 0.999)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, q):
    assert stats.tail_quantile(n) == q
    higher = [x for x in stats.TAIL_LADDER if x > q]
    assert all(stats.samples_beyond(n, x) < stats.MIN_BEYOND for x in higher)
    if n > 20:
        assert stats.samples_beyond(n, q) >= stats.MIN_BEYOND


def test_percentile_matches_numpy():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 100):
        xs = list(rng.exponential(size=n))
        for q in (0.0, 0.5, 0.75, 0.99, 1.0):
            assert stats.percentile(xs, q) == pytest.approx(np.percentile(xs, 100 * q))


def test_latency_summary_reports_the_rule():
    lat = stats.latency_summary([float(k) for k in range(101)])
    assert (lat["n"], lat["tail_q"], lat["beyond"]) == (101, 0.9, 10)
    assert lat["p50"] == 50.0 and lat["tail"] == 90.0


def _op(i, kind, seconds, items, failed, ref=hostspeed.NOMINAL_S):
    return [i, kind, seconds, items, failed, f"{kind}{seconds}", seconds, ref]


def test_fail_ratio_base_is_items_and_latency_uses_successful_ops():
    # two sweep ops of 101 rows, one with 3 bad rows; one op that raised
    doc = {
        "elapsed": 4.0,
        "ops": [_op(0, "spherical", 1.0, 101, 0), _op(1, "spatial", 2.0, 101, 3), _op(2, "spherical", 0.0, 101, 101)],
        "failures": [{"class": "check:residual", "typed": None}] * 3
        + [{"class": "ZeroDivisionError", "typed": False}],
    }
    loop = loop_summary([doc], 2)
    assert (loop["items"], loop["failed_items"]) == (303, 104)
    assert stats.ratio(loop["failed_items"], loop["items"]) == pytest.approx(104 / 303)
    assert loop["ok_ops"] == 1 and loop["ops_per_s"] == pytest.approx(1 / 3.0)  # busy 3 s
    assert loop["latency"]["spherical"]["n"] == 1 and loop["latency"]["spatial"]["n"] == 0
    assert loop["fail_classes"] == {"check:residual": 3, "ZeroDivisionError": 1}
    assert loop["fail_kinds"] == {"typed": 0, "untyped": 1, "check": 3}
    assert loop["digest"] is not None and loop_summary([doc], 4)["digest"] is None


def test_pooled_children_give_one_loop():
    a = {"elapsed": 1.0, "ops": [_op(0, "spherical", 0.5, 1, 0), _op(2, "spherical", 0.7, 1, 0)], "failures": []}
    b = {"elapsed": 3.0, "ops": [_op(1, "spatial", 1.5, 1, 0)], "failures": []}
    loop = loop_summary([b, a], 3)
    assert loop["ops_per_s"] == pytest.approx(3 / 2.7)
    assert loop["latency"]["spherical"]["p50"] == pytest.approx(0.6)
    assert loop["digest"] == loop_summary([a, b], 3)["digest"]


def test_ratio_needs_attempts():
    with pytest.raises(ValueError):
        stats.ratio(0, 0)


def test_times_are_scaled_to_nominal_host_speed():
    slow = hostspeed.NOMINAL_S * 2  # the reference ran at half speed around this op
    doc = {"elapsed": 1.0, "ops": [_op(0, "spatial", 0.8, 1, 0, ref=slow)], "failures": []}
    loop = loop_summary([doc], 1)
    assert loop["latency"]["spatial"]["p50"] == pytest.approx(0.4)
    assert loop["raw_latency"]["spatial"]["p50"] == pytest.approx(0.8)
    assert loop["ops_per_s"] == pytest.approx(1 / 0.4)
    assert loop["raw_ops_per_s"] == pytest.approx(1 / 0.8)
