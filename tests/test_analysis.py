"""Unit tests for traces, classification and statistics."""

import math

import pytest

from repro.analysis.classify import Outcome, classify_run, last_activity_time
from repro.analysis.stats import mean, stdev
from repro.analysis.traces import Trace, TraceRecord
from repro.experiments.resultstore import trace_from_dict, trace_to_dict


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

def test_trace_records_and_counters():
    tr = Trace()
    tr.record(1.0, "a", x=1)
    tr.record(2.0, "b")
    tr.record(3.0, "a", x=2)
    assert len(tr) == 3
    assert tr.count("a") == 2
    assert tr.last_t("a") == 3.0
    assert tr.last("a").x == 2
    assert [r.kind for r in tr.of_kind("a")] == ["a", "a"]


def test_trace_counters_without_keeping_records():
    tr = Trace(keep=False)
    assert tr.last("tick") is None and tr.last_t("tick") is None
    for i in range(100):
        tr.record(float(i), "tick", i=i)
    tr.record(100.0, "tock")
    assert len(tr) == 0
    assert tr.count("tick") == 100
    assert tr.last_t("tick") == 99.0
    assert tr.last("tick") == TraceRecord(99.0, "tick", {"i": 99})


def test_trace_record_attribute_error():
    tr = Trace()
    tr.record(0.0, "k", present=1)
    rec = tr.records[0]
    assert rec.present == 1
    with pytest.raises(AttributeError):
        _ = rec.absent


def test_reloaded_trace_last_agrees_with_its_records():
    tr = Trace()
    tr.record(1.0, "a", x=1)
    tr.record(2.0, "b")
    tr.record(3.0, "a", x=2)
    back = trace_from_dict(trace_to_dict(tr))
    assert back.records == tr.records and back.counts == tr.counts
    for kind in ("a", "b", "absent"):
        assert back.last(kind) == tr.last(kind)
        assert back.last_t(kind) == tr.last_t(kind)
    assert back.last("a") == back.of_kind("a")[-1]
    # a trace that kept no records reloads its counts and nothing else
    quiet = Trace(keep=False)
    quiet.record(1.0, "a")
    back = trace_from_dict(trace_to_dict(quiet))
    assert back.counts == {"a": 1} and back.last("a") is None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _trace_with(records):
    tr = Trace()
    for t, kind in records:
        tr.record(t, kind)
    return tr


def test_classify_terminated():
    tr = _trace_with([(10.0, "progress"), (200.0, "app_done")])
    verdict = classify_run(tr, timeout=1500.0)
    assert verdict.outcome is Outcome.TERMINATED
    assert verdict.exec_time == 200.0
    assert verdict.terminated


def test_classify_buggy_frozen():
    # activity stops at t=60, timeout at 1500: frozen
    tr = _trace_with([(30.0, "ckpt_wave_complete"), (60.0, "restart_wave")])
    verdict = classify_run(tr, timeout=1500.0)
    assert verdict.outcome is Outcome.BUGGY
    assert verdict.buggy
    assert verdict.last_activity == 60.0


def test_classify_non_terminating_cycling():
    records = [(t, "restart_wave") for t in range(50, 1500, 50)]
    tr = _trace_with([(float(t), k) for t, k in records])
    verdict = classify_run(tr, timeout=1500.0)
    assert verdict.outcome is Outcome.NON_TERMINATING
    assert verdict.non_terminating


def test_classify_threshold_boundary():
    tr = _trace_with([(1400.0, "progress")])
    assert classify_run(tr, timeout=1500.0,
                        freeze_threshold=150.0).outcome is Outcome.NON_TERMINATING
    assert classify_run(tr, timeout=1500.0,
                        freeze_threshold=50.0).outcome is Outcome.BUGGY


def test_last_activity_ignores_unknown_kinds():
    tr = _trace_with([(100.0, "progress"), (900.0, "irrelevant_kind")])
    assert last_activity_time(tr) == 100.0


def test_empty_trace_is_buggy_at_timeout():
    verdict = classify_run(Trace(), timeout=1500.0)
    assert verdict.outcome is Outcome.BUGGY


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_mean_stdev_basic():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert mean(xs) == 2.5
    assert stdev(xs) == pytest.approx(math.sqrt(5.0 / 3.0))


def test_mean_empty_raises():
    with pytest.raises(ValueError):
        mean([])
    with pytest.raises(ValueError):
        stdev([])


def test_stdev_single_sample_zero():
    assert stdev([5.0]) == 0.0
