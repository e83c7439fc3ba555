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
from repro.obs.spans import FIELDS, KIND, LANE, T0, T1, Obs, span_rollups
from repro.simkernel.engine import Engine


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
# span lifecycle: a span is its row
# ---------------------------------------------------------------------------

def _observed_engine():
    engine = Engine(seed=1, trace=Trace())
    engine.obs = Obs()
    return engine


def test_span_open_close_is_idempotent():
    engine = _observed_engine()
    engine.now = 1.0
    row = engine.span("detect", lane="m1", node="m1")
    assert row == [1.0, None, "detect", "m1", {"node": "m1"}]
    assert engine.obs.spans == [row]        # the recorder keeps the row
    engine.now = 2.5
    engine.end(row, where="running")
    engine.now = 3.0
    engine.end(row, where="ignored")        # second end is a no-op
    assert row[T0] == 1.0 and row[T1] == 2.5
    assert row[KIND] == "detect" and row[LANE] == "m1"
    assert row[FIELDS] == {"node": "m1", "where": "running"}
    # a zero-length span
    engine.end(engine.span("commit", lane="svc1", wave=3))
    assert engine.obs.spans[-1] == [3.0, 3.0, "commit", "svc1", {"wave": 3}]
    assert engine.obs.to_doc(metrics={})["spans"] is engine.obs.spans


def test_end_oldest_is_fifo_and_match_filters():
    obs = Obs()
    a = obs.open("detect", "m1", 1.0, {"node": "m1"})
    b = obs.open("detect", "m2", 2.0, {"node": "m2"})
    # match skips the older span when its fields disagree
    closed = obs.end_oldest("detect", 5.0, match={"node": "m2"}, rank=2)
    assert closed is b and b[T1] == 5.0 and a[T1] is None
    assert b[FIELDS] == {"node": "m2", "rank": 2}
    # no match: plain FIFO
    closed = obs.end_oldest("detect", 6.0)
    assert closed is a and a[T1] == 6.0
    # nothing open -> None
    assert obs.end_oldest("detect", 7.0) is None


def test_close_all_and_finalize_truncation():
    obs = Obs()
    obs.open("netsplit", "net", 1.0, {})
    obs.open("netsplit", "net", 2.0, {})
    assert obs.close_all("netsplit", 9.0, healed=True) == 2
    assert obs.close_all("netsplit", 10.0) == 0
    left_open = obs.open("transfer", "m1", 3.0, {})
    obs.finalize(100.0)
    obs.finalize(200.0)             # idempotent
    assert left_open[T1] == 100.0
    assert left_open[FIELDS]["_truncated"] is True
    doc = obs.to_doc(metrics={})
    assert doc["spans"] == [
        [1.0, 9.0, "netsplit", "net", {"healed": True}],
        [2.0, 9.0, "netsplit", "net", {"healed": True}],
        [3.0, 100.0, "transfer", "m1", {"_truncated": True}]]
    assert doc["truncated_spans"] == 1 and doc["dropped_spans"] == 0


def test_equal_open_rows_close_by_identity():
    """Two open rows of equal kind, lane, ``t0`` and fields are equal
    lists: ending the second must leave the first open, and only the
    first is truncated at the end of the run."""
    engine = _observed_engine()
    engine.now = 4.0
    first = engine.span("transfer", lane="m1", rank=0)
    second = engine.span("transfer", lane="m1", rank=0)
    assert first == second and first is not second
    engine.now = 6.0
    engine.end(second)
    assert second[T1] == 6.0 and first[T1] is None
    engine.obs.finalize(10.0)
    assert first == [4.0, 10.0, "transfer", "m1",
                     {"rank": 0, "_truncated": True}]
    assert second == [4.0, 6.0, "transfer", "m1", {"rank": 0}]
    assert engine.obs.truncated_spans == 1


def test_span_cap_drops_deterministically():
    engine = Engine(seed=1)
    engine.obs = obs = Obs(max_spans=2)
    s1 = engine.span("a", lane="m1")
    s2 = engine.span("a", lane="m1")
    assert engine.span("a", lane="m1") is None
    engine.end(None)                # harmless no-op
    assert obs.dropped_spans == 1
    assert obs.spans == [s1, s2] and s1 is obs.spans[0]


@pytest.mark.parametrize("kind", ["progress", "verify_ok", "app_done",
                                  "failure_detected"])
def test_engine_log_closes_catchup(kind):
    engine = _observed_engine()
    engine.now = 10.0
    span = engine.span("catchup", lane="svc0", epoch=1)
    other = engine.span("relaunch", lane="svc0", epoch=1)
    engine.now = 11.0
    engine.log("recovery_complete", epoch=1)
    assert span[T1] is None
    engine.now = 12.5
    engine.log(kind, rank=0)
    assert span[T1] == 12.5
    assert span[FIELDS].get("cut_short") is (
        True if kind == "failure_detected" else None)
    assert other[T1] is None
    assert engine.trace.last(kind).t == 12.5


def test_engine_span_without_recorder_is_free():
    engine = Engine(seed=1)
    assert engine.obs is None
    assert engine.span("detect", lane="m1", node="m1") is None
    engine.end(None, where="running")       # nothing to close, no error


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
