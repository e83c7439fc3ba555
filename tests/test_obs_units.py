"""Unit tests for the observability layer (:mod:`repro.obs`):
span lifecycle, the metrics fold, rollups, the phase table, the
Chrome-trace exporter and the timeline's failed-launch line — all on
synthetic documents, no simulation."""

import json
from types import SimpleNamespace

import pytest

from repro.analysis.classify import Outcome
from repro.analysis.traces import Trace
from repro.experiments.timeline_cmd import failed_launches_line
from repro.mpichv.channelmemory import ChannelMemoryState
from repro.mpichv.ckptserver import CkptServerState
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.obs.chrometrace import chrome_trace_doc, chrome_trace_json
from repro.obs.phases import epoch_phase_table, render_phase_table
from repro.obs.spans import (FIELDS, KIND, LANE, NULL_SPAN, T0, T1, Obs,
                             span_rollups)
from repro.simkernel.engine import Engine


class FakeEngine:
    def __init__(self):
        self.now = 0.0


# ---------------------------------------------------------------------------
# metrics: the runtime's end-of-run fold
# ---------------------------------------------------------------------------

def _folded_metrics(coverage, ckpt_states=(), cm_states=()):
    """The ``metrics`` section :meth:`VclRuntime._finalize_obs` folds
    from the given probe counts and service states (no simulation)."""
    runtime = VclRuntime(VclConfig(n_procs=2), app_factory=None)
    runtime.engine.coverage = dict(coverage)
    runtime.service_procs = {
        **{f"ckptserver.{i}": SimpleNamespace(tags={"ckpt_state": state})
           for i, state in enumerate(ckpt_states)},
        **{f"channelmemory.{i}": SimpleNamespace(tags={"cm_state": state})
           for i, state in enumerate(cm_states)}}
    return runtime._finalize_obs()["metrics"]


def test_metrics_counters_gauges_histograms_roundtrip():
    server = CkptServerState()
    server.note_disk_wait(3.7)
    server.note_disk_wait(900)
    cm = ChannelMemoryState()
    cm.logged, cm.pruned = 17, 5
    doc = _folded_metrics({
        "disp.rx.Register": 4, "disp.rx.Done": 2,
        "disp.launch_death": 3,
        "disp.closure.failure.running": 2,
        "disp.closure.failure.restarting": 1,
        "disp.closure.bug_misattribution": 1,
        "disp.wave.app_start": 1,           # a probe, not a metric
    }, ckpt_states=[server, CkptServerState()], cm_states=[cm])
    assert doc == {
        "counters": {"disp.detect.closure": 3, "disp.detect.launch": 3,
                     "disp.detect.missed": 1, "disp.rx.Done": 2,
                     "disp.rx.Register": 4},
        "gauges": {"cm.0.duplicates": 0, "cm.0.forwarded": 0,
                   "cm.0.logged": 17, "cm.0.pruned": 5},
        # a server that never waited has no histogram
        "histograms": {"ckptsrv.0.disk.wait_ms": {"2": 1, "512": 1}},
    }
    # sorted keys, and the document survives the JSON round trip
    for section in doc.values():
        assert list(section) == sorted(section)
    assert json.loads(json.dumps(doc)) == doc


def test_metrics_histogram_buckets_are_log_spaced():
    server = CkptServerState()
    for v in (1, 2, 3, 1000):
        server.note_disk_wait(v)
    doc = _folded_metrics({}, ckpt_states=[server])
    buckets = doc["histograms"]["ckptsrv.0.disk.wait_ms"]
    # 1 and every value <= the first bucket edge share a bucket; 1000
    # lands far away — at least two distinct buckets, not one per value
    assert 2 <= len(buckets) < 4
    assert [int(b) for b in buckets] == sorted(int(b) for b in buckets)
    assert json.dumps(doc)  # JSON-safe


# ---------------------------------------------------------------------------
# span lifecycle
# ---------------------------------------------------------------------------

def test_span_open_close_is_idempotent():
    eng = FakeEngine()
    obs = Obs(eng)
    span = obs.open("detect", "m1", 1.0, {"node": "m1"})
    eng.now = 2.5
    span.close(where="running")
    span.close(where="ignored")     # second close is a no-op
    row = span.to_row()
    assert row[T0] == 1.0 and row[T1] == 2.5
    assert row[KIND] == "detect" and row[LANE] == "m1"
    assert row[FIELDS] == {"node": "m1", "where": "running"}


def test_end_oldest_is_fifo_and_match_filters():
    eng = FakeEngine()
    obs = Obs(eng)
    a = obs.open("detect", "m1", 1.0, {"node": "m1"})
    b = obs.open("detect", "m2", 2.0, {"node": "m2"})
    # match skips the older span when its fields disagree
    closed = obs.end_oldest("detect", 5.0, match={"node": "m2"})
    assert closed is b and b.closed and not a.closed
    # no match: plain FIFO
    closed = obs.end_oldest("detect", 6.0)
    assert closed is a
    # nothing open -> None
    assert obs.end_oldest("detect", 7.0) is None


def test_close_all_and_finalize_truncation():
    eng = FakeEngine()
    obs = Obs(eng)
    obs.open("netsplit", "net", 1.0, {})
    obs.open("netsplit", "net", 2.0, {})
    assert obs.close_all("netsplit", 9.0) == 2
    left_open = obs.open("transfer", "m1", 3.0, {})
    obs.finalize(100.0)
    obs.finalize(200.0)             # idempotent
    assert left_open.t1 == 100.0
    assert left_open.fields["_truncated"] is True
    doc = obs.to_doc(metrics={})
    assert doc["truncated_spans"] == 1 and doc["dropped_spans"] == 0


def test_span_cap_drops_deterministically():
    eng = FakeEngine()
    obs = Obs(eng, max_spans=2)
    s1 = obs.open("a", "m1", 0.0, {})
    s2 = obs.open("a", "m1", 1.0, {})
    s3 = obs.open("a", "m1", 2.0, {})
    assert s3 is NULL_SPAN and s3.closed
    s3.close()                      # harmless no-op
    assert obs.dropped_spans == 1
    assert [s1, s2] == obs.spans


@pytest.mark.parametrize("kind", ["progress", "verify_ok", "app_done",
                                  "failure_detected"])
def test_engine_log_closes_catchup(kind):
    engine = Engine(seed=1, trace=Trace())
    engine.obs = Obs(engine)
    engine.now = 10.0
    span = engine.span("catchup", lane="svc0", epoch=1)
    other = engine.span("relaunch", lane="svc0", epoch=1)
    engine.now = 11.0
    engine.log("recovery_complete", epoch=1)
    assert not span.closed
    engine.now = 12.5
    engine.log(kind, rank=0)
    assert span.closed and span.t1 == 12.5
    assert span.fields.get("cut_short") is (
        True if kind == "failure_detected" else None)
    assert not other.closed
    assert engine.trace.last(kind).t == 12.5


def test_engine_span_without_recorder_is_free():
    engine = Engine(seed=1)
    assert engine.obs is None
    span = engine.span("detect", lane="m1", node="m1")
    assert span is engine.span("anything")      # the one shared handle
    assert span.close() is span


def test_span_rollups():
    doc = {"spans": [
        [0.0, 2.0, "relaunch", "svc0", {}],
        [5.0, 6.5, "relaunch", "svc0", {}],
        [7.0, 9.0, "relaunch", "svc0", {"_truncated": True}],
        [0.0, 0.0, "commit", "svc1", None],
    ]}
    roll = span_rollups(doc)
    assert roll["relaunch"]["count"] == 3
    assert roll["relaunch"]["total"] == 3.5
    assert roll["relaunch"]["max"] == 2.0
    assert roll["relaunch"]["truncated"] == 1
    assert roll["commit"]["count"] == 1
    assert span_rollups(None) == {}


# ---------------------------------------------------------------------------
# Chrome-trace exporter
# ---------------------------------------------------------------------------

def _sample_doc():
    return {
        "version": 2,
        "spans": [
            [1.0, 2.0, "transfer", "m10", {"bytes": 7}],
            [0.5, 3.0, "relaunch", "m2", {}],
            [4.0, 4.0, "commit", "svc1", {}],
        ],
        "dropped_spans": 0,
        "truncated_spans": 0,
        "metrics": {"counters": {"disp.restarts": 1}, "gauges": {},
                    "histograms": {}},
        "exec": {},
    }


def test_chrome_trace_lane_order_is_natural():
    doc = chrome_trace_doc(_sample_doc())
    names = [e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"]
    assert names == ["m2", "m10", "svc1"]       # not lexicographic


def test_chrome_trace_events_use_integer_microseconds():
    doc = chrome_trace_doc(_sample_doc())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [(e["ts"], e["dur"]) for e in xs] == \
        [(1000000, 1000000), (500000, 2500000), (4000000, 0)]
    assert all(isinstance(e["ts"], int) and isinstance(e["dur"], int)
               for e in xs)
    assert doc["otherData"]["counters"] == {"disp.restarts": 1}


def test_chrome_trace_json_is_byte_stable():
    a = chrome_trace_json(_sample_doc())
    b = chrome_trace_json(json.loads(json.dumps(_sample_doc())))
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert parsed["displayTimeUnit"] == "ms"


# ---------------------------------------------------------------------------
# phase table
# ---------------------------------------------------------------------------

def _recovery_doc():
    # fault halts at t=10; dispatcher confirms at 10.5; daemons are
    # re-registered at 12; restore runs 12..13; replay 13..13.4;
    # catch-up ends at the first progress, 15
    return {"spans": [
        [10.0, 10.5, "detect", "m1", {"node": "m1"}],
        [10.5, 12.0, "relaunch", "svc0", {"epoch": 1, "mode": "full"}],
        [12.0, 13.0, "restore", "m1", {"rank": 0, "epoch": 1}],
        [13.0, 13.4, "replay", "m1", {"rank": 0}],
        [12.0, 15.0, "catchup", "svc0", {"epoch": 1}],
    ]}


def test_phase_table_tiles_exactly():
    rows = epoch_phase_table(_recovery_doc())
    assert len(rows) == 1
    row = rows[0]
    assert row["epoch"] == 1
    assert row["t_fault"] == 10.0
    assert row["detect"] == 0.5
    assert row["relaunch"] == 1.5
    assert row["restore"] == 1.0
    assert abs(row["replay"] - 0.4) < 1e-9
    # the four phases tile the recovery interval by construction
    assert abs(row["detect"] + row["relaunch"] + row["restore"]
               + row["replay"] - row["recovery"]) < 1e-12
    assert row["catchup"] == 3.0
    assert not row["suspected"] and not row["truncated"]


def test_phase_table_empty_and_render():
    assert epoch_phase_table(None) == []
    assert epoch_phase_table({"spans": []}) == []
    assert "no recovery spans" in render_phase_table(None)
    text = render_phase_table(_recovery_doc())
    assert "epoch" in text and "recovery" in text and "0.500" in text


def test_phase_table_marks_suspected_and_truncated():
    doc = {"spans": [
        [10.0, 10.5, "detect", "m1", {"node": "m1", "suspected": True}],
        [10.5, 600.0, "relaunch", "svc0",
         {"epoch": 2, "mode": "full", "_truncated": True}],
    ]}
    rows = epoch_phase_table(doc)
    assert rows[0]["suspected"] and rows[0]["truncated"]
    assert "(suspected, truncated)" in render_phase_table(doc)


@pytest.mark.parametrize("outcome, counters, line", [
    (Outcome.NON_TERMINATING, {"disp.detect.launch": 3998,
                               "disp.detect.closure": 1},
     "failed launches: 3998"),
    # a trial that never ended for another reason says nothing more
    (Outcome.NON_TERMINATING, {"disp.detect.closure": 1}, None),
    (Outcome.NON_TERMINATING, {"disp.detect.launch": 0}, None),
    # launch deaths behind a trial that did end are not its story
    (Outcome.TERMINATED, {"disp.detect.launch": 3}, None),
    (Outcome.BUGGY, {"disp.detect.launch": 3}, None),
])
def test_timeline_names_the_failed_launches_of_a_stalled_trial(
        outcome, counters, line):
    doc = {"spans": [], "metrics": {"counters": counters, "gauges": {},
                                    "histograms": {}}}
    assert failed_launches_line(outcome, doc) == line
    assert failed_launches_line(outcome, None) is None
