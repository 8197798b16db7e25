import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import (
    ActionInstanceApproximation,
    ConfidenceNote,
    InstanceRank,
    ObjectRecord,
    TimeInterval,
    TimestampKind,
    TraceState,
)
from tracerecon.model import instance_interval

times = st.integers(min_value=0, max_value=2**33)
thresholds = st.integers(min_value=0, max_value=10_000)


def test_kinds_are_ordered_by_their_value():
    for a in TimestampKind:
        for b in TimestampKind:
            assert (a < b) == (a.value < b.value)
    assert sorted(TimestampKind) == [
        TimestampKind.ACCESSED,
        TimestampKind.CREATED,
        TimestampKind.METACHANGED,
        TimestampKind.MODIFIED,
    ]


def test_interval_from_observed_value():
    assert instance_interval(100, 100, 30) == TimeInterval(70, 100)


def test_zero_threshold_degenerates_to_a_point():
    assert instance_interval(1234, 1234, 0) == TimeInterval(1234, 1234)


def test_start_clamps_at_epoch_floor():
    # 50 - 80 would be negative; pre-1970 times are meaningless here
    assert instance_interval(50, 50, 80) == TimeInterval(0, 50)


def test_interval_of_a_span_runs_from_oldest_minus_threshold_to_newest():
    assert instance_interval(100, 130, 30) == TimeInterval(70, 130)
    assert instance_interval(20, 130, 30) == TimeInterval(0, 130)


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        instance_interval(100, 100, -1)


@given(times, thresholds)
def test_width_equals_threshold_unless_clamped(value, threshold):
    interval = instance_interval(value, value, threshold)
    if value - threshold >= 0:
        assert interval.end - interval.start == threshold
    else:
        assert interval == TimeInterval(0, value)


@given(times, times, thresholds)
def test_interval_is_monotone_in_the_observed_value(a, b, threshold):
    lo, hi = sorted((a, b))
    first, second = instance_interval(lo, lo, threshold), instance_interval(hi, hi, threshold)
    assert first.start <= second.start
    assert first.end <= second.end


def test_interval_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        TimeInterval(10, 5)


def test_interval_contains_its_closed_bounds():
    interval = TimeInterval(100, 130)
    assert interval.contains(100) and interval.contains(130)
    assert not interval.contains(99) and not interval.contains(131)


def test_record_requires_a_path_and_a_timestamp():
    with pytest.raises(ValueError):
        ObjectRecord(path="", modified=10)
    with pytest.raises(ValueError):
        ObjectRecord(path="C:/x")
    with pytest.raises(ValueError):
        ObjectRecord(path="C:/x", modified=-1)


def test_record_exposes_only_present_timestamps():
    record = ObjectRecord(path="C:/x", modified=10, created=5)
    assert record.timestamps == {
        TimestampKind.MODIFIED: 10,
        TimestampKind.CREATED: 5,
    }
    assert record.accessed is None


def test_approximation_needs_evidence_and_anchors_at_oldest():
    states = (
        TraceState("C:/a", TimestampKind.MODIFIED, 40),
        TraceState("C:/b", TimestampKind.CREATED, 25),
    )
    approx = ActionInstanceApproximation(
        "A", TimeInterval(0, 40), states, InstanceRank.PAST, ConfidenceNote.DEFINITE
    )
    assert approx.detected == 25
    with pytest.raises(ValueError):
        ActionInstanceApproximation(
            "A", TimeInterval(0, 40), (), InstanceRank.PAST, ConfidenceNote.DEFINITE
        )
