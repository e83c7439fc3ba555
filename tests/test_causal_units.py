"""Unit tests of causal message tracing: graph recording + caps,
stamping helpers, the critical-path walk on synthetic documents, the
trace-diff renderer, and the campaign rollup exposition formats."""

import json

import pytest

from repro.analysis.classify import classify_run
from repro.analysis.critpath import (critical_paths, critpath_rollup,
                                     render_critical_paths)
from repro.analysis.tracediff import trace_diff_text
from repro.analysis.traces import Trace
from repro.obs.causal import (MAX_CAUSAL_NODES, OBS_VERSION, CausalGraph,
                              adopt, causal_kind_rollup, ctx_of, derive,
                              parent_of, stamp)
from repro.obs.report import aggregate_obs, html_report, openmetrics_text
from repro.simkernel.engine import Engine
from tests.causal_view import E_TYPE, N_ID, graph_view


class Msg:
    """A stand-in for a wire message (plain object, stampable)."""


# ---------------------------------------------------------------------------
# graph recording
# ---------------------------------------------------------------------------

def test_mint_ids_are_per_site_and_deterministic():
    g = CausalGraph()
    assert g.mint_id("r0", 1.5) == "r0.1.1500000"
    assert g.mint_id("r0", 1.5) == "r0.2.1500000"
    assert g.mint_id("disp", 1.5) == "disp.1.1500000"
    assert g.minted == 3


def test_transmit_records_nodes_and_edges():
    g = CausalGraph()
    tid = g.mint_id("r0", 1.0)
    g.on_transmit((tid, None), "AppMessage", "m1", "m2", 1.0, 1.25, 1024)
    # a derived message parented on the first one's receive
    tid2 = g.mint_id("r1", 1.25)
    g.on_transmit((tid2, tid), "EvLog", "m2", "svc1", 1.25, 1.5, 64)
    # the wire layout: one row per transmission, strings interned in
    # first-seen order, the parent as a row number
    assert g.to_doc() == {
        "tid": [tid, tid2],
        "t_send": [1.0, 1.25], "t_recv": [1.25, 1.5],
        "src": [0, 1], "dst": [1, 2], "kind": [0, 1], "parent": [-1, 0],
        "hosts": ["m1", "m2", "svc1"], "kinds": ["AppMessage", "EvLog"],
        "dropped_nodes": 0, "dropped_edges": 0, "minted": 2}
    nodes, edges = graph_view(g.to_doc())
    assert nodes == [[f"{tid}:s", 1.0, "m1", "AppMessage"],
                     [f"{tid}:r", 1.25, "m2", "AppMessage"],
                     [f"{tid2}:s", 1.25, "m2", "EvLog"],
                     [f"{tid2}:r", 1.5, "svc1", "EvLog"]]
    assert [e[E_TYPE] for e in edges] == ["net", "net", "causal"]
    causal_edge = edges[2]
    assert nodes[causal_edge[0]][N_ID] == f"{tid}:r"
    assert nodes[causal_edge[1]][N_ID] == f"{tid2}:s"


def test_broadcast_fanout_gets_unique_node_ids():
    g = CausalGraph()
    tid = g.mint_id("disp", 2.0)
    for i in range(3):
        g.on_transmit((tid, None), "CommandMap", "svc0", f"m{i}",
                      2.0, 2.1, 256)
    # a reply to any copy hangs off the trace's first receive
    g.on_transmit((g.mint_id("r1", 2.1), tid), "Register", "m1", "svc0",
                  2.1, 2.2, 64)
    assert g.to_doc()["tid"][:3] == [tid, f"{tid}#1", f"{tid}#2"]
    assert g.to_doc()["parent"] == [-1, -1, -1, 0]
    ids = [n[N_ID] for n in graph_view(g.to_doc())[0]]
    assert len(ids) == len(set(ids)) == 8
    assert f"{tid}:s" in ids and f"{tid}#1:s" in ids and f"{tid}#2:s" in ids


def test_node_cap_and_drop_accounting():
    g = CausalGraph(max_nodes=4)
    t1 = g.mint_id("r0", 1.0)
    g.on_transmit((t1, None), "A", "m1", "m2", 1.0, 1.1, 1)
    # a parent that never crossed the network: the row is kept, its
    # causal edge is dropped rather than dangling
    t2 = g.mint_id("r0", 2.0)
    g.on_transmit((t2, "ghost.1.0"), "B", "m2", "m3", 2.0, 2.1, 1)
    assert (g.dropped_nodes, g.dropped_edges) == (0, 1)
    # over the cap a transmission drops whole: two nodes, its net edge
    # and — when it had a parent — its causal edge
    t3 = g.mint_id("r0", 3.0)
    g.on_transmit((t3, t1), "C", "m3", "m1", 3.0, 3.1, 1)
    assert (g.dropped_nodes, g.dropped_edges) == (2, 3)
    g.on_transmit((t1, None), "A", "m1", "m3", 3.0, 3.1, 1)
    assert (g.dropped_nodes, g.dropped_edges) == (4, 4)
    # a parent that fell to the cap resolves to nothing, never to a row
    # past the end
    doc = g.to_doc()
    nodes, edges = graph_view(doc)
    assert len(nodes) == 4 and doc["parent"] == [-1, -1]
    assert all(e[0] < 4 and e[1] < 4 for e in edges)
    assert doc["dropped_nodes"] == 4 and doc["dropped_edges"] == 4
    assert doc["minted"] == 3
    assert MAX_CAUSAL_NODES == 50000


# ---------------------------------------------------------------------------
# stamping helpers
# ---------------------------------------------------------------------------

def test_stamp_is_inert_without_a_recorder():
    eng = Engine(seed=0)
    assert eng.obs is None
    msg = Msg()
    stamp(eng, msg, "r0")
    assert ctx_of(msg) is None and parent_of(msg) is None


def test_stamp_derive_adopt_with_recorder():
    from repro.obs import Obs
    eng = Engine(seed=0)
    eng.obs = Obs(eng)
    root = Msg()
    stamp(eng, root, "r0")
    tid, parent = ctx_of(root)
    assert tid.startswith("r0.1.") and parent is None
    assert parent_of(root) == tid
    child = Msg()
    derive(eng, child, "evlog", root)
    ctid, cparent = ctx_of(child)
    assert ctid.startswith("evlog.1.") and cparent == tid
    envelope = Msg()
    adopt(envelope, root)
    assert ctx_of(envelope) == ctx_of(root)     # same trace, verbatim
    unstamped = Msg()
    adopt(Msg(), unstamped)                     # no ctx: no-op, no error


def _causal(*transmissions):
    """A causal section recording ``(ctx, kind, src, dst, t_send,
    t_recv)`` transmissions."""
    g = CausalGraph()
    for ctx, kind, src, dst, t_send, t_recv in transmissions:
        g.on_transmit(ctx, kind, src, dst, t_send, t_recv, 0)
    return g.to_doc()


def test_causal_kind_rollup():
    doc = {"version": OBS_VERSION, "causal": _causal(
        (("a", None), "DataMsg", "m1", "m2", 1.0, 1.5),
        (("b", "a"), "EvLog", "m2", "svc1", 2.0, 2.25))}
    roll = causal_kind_rollup(doc)
    assert roll == {"DataMsg": {"count": 1, "seconds": 0.5},
                    "EvLog": {"count": 1, "seconds": 0.25}}
    assert causal_kind_rollup(None) == {}
    assert causal_kind_rollup({"version": 1, "spans": []}) == {}


def test_old_layout_document_is_refused_by_name(tmp_path, monkeypatch):
    """A version-2 (node/edge list) document fails every reader with
    one message naming both versions, not a KeyError in the walk."""
    from repro.analysis.tracediff import load_obs_doc
    from repro.experiments import trace_diff_cmd
    old = {"version": 2, "spans": _recovery_doc()["spans"], "causal": {
        "nodes": [["a:s", 11.0, "m1", "DataMsg"],
                  ["a:r", 11.5, "m2", "DataMsg"]],
        "edges": [[0, 1, "net"]],
        "dropped_nodes": 0, "dropped_edges": 0, "minted": 1}}
    message = "obs document version 2, expected 3"
    for reader in (critical_paths, causal_kind_rollup,
                   lambda doc: aggregate_obs([doc])):
        with pytest.raises(ValueError, match=message):
            reader(old)
    bare, result = tmp_path / "obs.json", tmp_path / "result.json"
    bare.write_text(json.dumps(old))
    result.write_text(json.dumps({"format": 8, "obs": old}))
    for path in (bare, result):
        with pytest.raises(ValueError, match=f"{path.name}: {message}"):
            load_obs_doc(str(path))
    monkeypatch.setattr("sys.argv", ["trace-diff", str(bare), str(bare)])
    with pytest.raises(SystemExit, match=f"trace-diff: .*{message}"):
        trace_diff_cmd.main()


# ---------------------------------------------------------------------------
# critical paths on synthetic documents
# ---------------------------------------------------------------------------

def _recovery_doc():
    return {"version": OBS_VERSION, "spans": [
        [10.0, 10.5, "detect", "m1", {"node": "m1"}],
        [10.5, 12.0, "relaunch", "svc0", {"epoch": 1, "mode": "full"}],
        [12.0, 13.0, "restore", "m1", {"rank": 0, "epoch": 1}],
        [13.0, 13.4, "replay", "m1", {"rank": 0}],
    ], "causal": _causal(
        (("f.1.0", None), "FetchReq", "svc0", "svc2", 11.0, 11.2),
        (("g.1.0", "f.1.0"), "FetchResp", "svc2", "m1", 11.2, 12.9))}


def test_critical_path_segments_tile_exactly():
    rows = critical_paths(_recovery_doc())
    assert len(rows) == 1
    row = rows[0]
    assert [s["phase"] for s in row["segments"]] == \
        ["detect", "relaunch", "restore", "replay"]
    # the acceptance identity: exact, not approximate
    assert sum(s["dur"] for s in row["segments"]) == row["recovery"]
    assert row["attribution"]["restore_transfer"]["count"] == 2
    # backward walk: latest receive in the window chains to the fetch
    assert row["chain"] == ["f.1.0:s", "f.1.0:r", "g.1.0:s", "g.1.0:r"]
    roll = critpath_rollup(_recovery_doc())
    assert roll["recovery"] == round(row["recovery"], 9)
    assert "recovery" in render_critical_paths(_recovery_doc())


def test_zero_recovery_is_safe_everywhere():
    empty = {"version": OBS_VERSION, "spans": [], "dropped_spans": 0,
             "truncated_spans": 0,
             "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
             "causal": CausalGraph().to_doc(),
             "exec": {}}
    assert critical_paths(empty) == []
    assert critpath_rollup(empty) == {}
    assert "no recovery" in render_critical_paths(empty)
    # classify: observed fault-free -> empty rollup, not None, no crash
    trace = Trace()
    trace.record(100.0, "app_done")
    verdict = classify_run(trace, timeout=1500.0, obs=empty)
    assert verdict.critpath_segments == {}
    assert classify_run(trace, timeout=1500.0, obs=None) \
        .critpath_segments is None
    # trace-diff: empty vs empty and empty vs faulted both render
    text = trace_diff_text(empty, empty)
    assert "no recoveries on either side" in text
    text = trace_diff_text(empty, _recovery_doc())
    assert "0 vs 1 epochs" in text
    assert trace_diff_text(None, None)          # observation off: fine


def test_trace_diff_is_deterministic():
    a, b = _recovery_doc(), _recovery_doc()
    b["spans"][1] = [10.5, 14.0, "relaunch", "svc0",
                     {"epoch": 1, "mode": "full"}]
    one = trace_diff_text(a, b, label_a="x", label_b="y")
    two = trace_diff_text(a, b, label_a="x", label_b="y")
    assert one == two
    assert "+2.000" in one                       # relaunch grew by 2 s


# ---------------------------------------------------------------------------
# campaign rollup
# ---------------------------------------------------------------------------

def test_openmetrics_and_html_report():
    docs = [_recovery_doc(), _recovery_doc(), None]
    agg = aggregate_obs(docs)
    assert agg["trials"] == 2 and agg["epochs"] == 2
    text = openmetrics_text(agg)
    assert text.endswith("# EOF\n")
    assert 'repro_critpath_seconds_total{phase="relaunch"} 3' in text
    assert 'repro_wire_count_total{kind="FetchReq"} 2' in text
    # byte-determinism of both renderings
    assert text == openmetrics_text(aggregate_obs(docs))
    page = html_report(agg, title="t<e>st")
    assert page == html_report(aggregate_obs(docs), title="t<e>st")
    assert "t&lt;e&gt;st" in page
    assert json.dumps(agg, sort_keys=True) \
        == json.dumps(aggregate_obs(docs), sort_keys=True)
